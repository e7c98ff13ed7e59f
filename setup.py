"""Packaging for the BREL reproduction (offline-friendly setup.py)."""

import os
import re

from setuptools import find_packages, setup


def read_version():
    """Parse __version__ from the package without importing it."""
    here = os.path.dirname(os.path.abspath(__file__))
    init = os.path.join(here, "src", "repro", "__init__.py")
    with open(init, "r", encoding="utf-8") as handle:
        match = re.search(r'^__version__\s*=\s*"([^"]+)"',
                          handle.read(), re.MULTILINE)
    if not match:
        raise RuntimeError("__version__ not found in %s" % init)
    return match.group(1)


setup(
    name="repro-brel",
    version=read_version(),
    description="A recursive paradigm to solve Boolean relations "
                "(BREL, DAC'04 / IEEE TC'09) — pure-Python reproduction",
    long_description="See README.md: BDD-based Boolean-relation solver "
                     "with a declarative session/batch API, equation "
                     "systems, logic networks, and decomposition flows.",
    author="repro contributors",
    license="MIT",
    python_requires=">=3.8",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering :: "
        "Electronic Design Automation (ECAD)",
    ],
)
