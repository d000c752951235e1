"""Setuptools shim for ``pip install -e .``, including legacy editable
installs in offline environments that lack the ``wheel`` package
required by the PEP-660 editable path.

The bare ``setup()`` call declares no metadata of its own: setuptools'
automatic discovery finds the ``src/`` layout (the ``repro`` package and
its subpackages) and names the distribution after it.  No dependencies
are declared: the realizers, the CLI and the serve stack need only the
standard library.  ``repro.validation``, and with it the examples, the
benchmark harness and the tests, also needs networkx (see the README's
quickstart).
"""

from setuptools import setup

setup()
