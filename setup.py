"""Build the optional compiled kernels:
``python setup.py build_ext --inplace --force``. Without ``--force``, a tree
copied together with its ``build/`` directory keeps the old extension.

``optional=True`` turns a failed compile into a warning: the pure-Python
twin of the same kernels is selected at import time, so it costs speed,
never functionality.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("domindex._kernels", ["src/domindex/_kernels.c"], optional=True)])
