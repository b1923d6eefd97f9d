"""Packaging for the ONEX reproduction.

The offline environment used for this reproduction lacks the ``wheel``
package, which PEP 660 editable installs require; keeping a ``setup.py``
lets ``pip install -e .`` fall back to ``setup.py develop``.  All
metadata lives here.  ``_dtw_kernel.c`` ships as package data because
``repro.distances.native`` compiles it on first import, installed or not.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text()

setup(
    name="repro",
    version=re.search(r'^__version__ = "([^"]+)"', INIT, re.M).group(1),
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.distances": ["_dtw_kernel.c"]},
    install_requires=["numpy"],
)
