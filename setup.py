"""Legacy setup shim.

The execution environment has no network access and no ``wheel``
package, so PEP 517 editable installs cannot build an editable wheel.
This shim lets ``pip install -e . --no-build-isolation --no-use-pep517``
fall back to ``setup.py develop``, which needs neither.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # numpy powers the columnar engine; everything else is pure
    # stdlib, and repro degrades gracefully when it is missing (the
    # `ovs` backend runs the bit-identical scalar engine instead)
    install_requires=["numpy"],
    # `repro lint` / `repro scenario` etc. from the shell once installed
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
