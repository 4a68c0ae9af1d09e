"""Time a fixed fresh-process set-up that runs no program code; prints ``{"setup_s": ...}``.

It imports numpy and a dozen standard-library packages, the same kind of
work as the package imports that dominate ``probe.py``'s set-up.  ``run.py``
starts one beside each probe and scales ``setup_s`` by this set-up's
reference time over its measured median, as ``hostclock.py`` does for the
timed passes.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402,F401
import asyncio  # noqa: E402,F401
import concurrent.futures  # noqa: E402,F401
import decimal  # noqa: E402,F401
import email.parser  # noqa: E402,F401
import fractions  # noqa: E402,F401
import http.client  # noqa: E402,F401
import json  # noqa: E402
import logging  # noqa: E402,F401
import statistics  # noqa: E402,F401
import unittest  # noqa: E402,F401
import xml.etree.ElementTree  # noqa: E402,F401

import numpy  # noqa: E402,F401

if __name__ == "__main__":
    print(json.dumps({"setup_s": time.perf_counter() - _STARTED}))
