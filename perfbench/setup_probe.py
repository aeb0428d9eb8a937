"""Set-up of one study in a fresh interpreter.

Imports ``repro``, loads the study config, expands its specs and opens
its store, then exits.  ``run.py`` times this whole process as
``setup_s``.  Usage, from the checkout root with ``src`` on
``PYTHONPATH``::

    python3 perfbench/setup_probe.py STUDY_TOML
"""

import sys

import repro

study = repro.Study.from_file(sys.argv[1])
study.specs()
repro.SweepStore(study.config.store.out)
