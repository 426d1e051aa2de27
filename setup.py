"""Setuptools entry point.

Kept alongside ``pyproject.toml`` so that editable installs work in offline
environments lacking the ``wheel`` package (``pip install -e .`` falls back to
the legacy ``setup.py develop`` code path there).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro": ["py.typed", "sparsity/_ca_step.c", "sparsity/_ca_row.h",
                           "sparsity/_decode_mlp.c", "nn/_decode_attn.c",
                           "engine/_decode_step.c", "utils/_vector.h"]},
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
