"""Setuptools shim for ``pip install -e .``, including legacy editable
installs in offline environments that lack the ``wheel`` package
required by the PEP-660 editable path.

The bare ``setup()`` call declares no metadata of its own: setuptools'
automatic discovery finds the ``src/`` layout (the ``repro`` package and
its subpackages) and names the distribution after it.  No dependencies
are declared, so install the runtime dependency, numpy, separately (see
the README's quickstart).
"""

from setuptools import setup

setup()
