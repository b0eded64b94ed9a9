"""Legacy setup shim: offline environments without the `wheel` package
cannot build PEP-660 editable wheels, so `pip install -e .` falls back to
`setup.py develop` through this file.  Metadata mirrors pyproject.toml."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of the DECOS maintenance-oriented fault model and "
        "integrated diagnostic architecture (Peti et al., IPPS 2005)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
