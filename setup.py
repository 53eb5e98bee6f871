"""Setuptools entry point.

Install the package and its ``repro`` console script with::

    pip install -e .

Offline, where pip cannot fetch ``wheel`` for the build, use::

    python setup.py develop

Running from a checkout with ``PYTHONPATH=src`` needs no install at all.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description="Distributed coloring of sparse graphs with fewer colors (PODC 2018) reproduction",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy", "networkx"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
