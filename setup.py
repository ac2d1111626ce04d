"""Setuptools packaging for the ``repro`` reproduction.

Installing the package (``pip install -e .``) also installs the ``repro``
console script, which exposes the unified detection facade
(``repro detect --backend ...``) and every figure/experiment command of
:mod:`repro.cli`.
"""

from setuptools import find_packages, setup

setup(
    name="repro-cdrw",
    version="5.0.0",
    description=(
        "Reproduction of 'Efficient Distributed Community Detection in the "
        "Stochastic Block Model' (Fathi, Molla, Pandurangan; ICDCS 2019)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
