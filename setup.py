"""Legacy setup shim for offline editable installs (`pip install -e .`).

Project metadata lives in pyproject.toml; this file only exists so pip
can fall back to the setup.py editable-install path in environments
without the `wheel` package.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "nvpsim: behavioral simulation framework for energy-harvesting "
        "nonvolatile processors"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # kernels.c is compiled on first use (repro.native), not at install.
    package_data={"repro": ["py.typed"], "repro.native": ["kernels.c"]},
    python_requires=">=3.10",
    install_requires=["numpy>=1.23"],
)
