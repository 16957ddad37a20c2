"""The seed-7 verdict dump, run once for the tests that read it.

``scripts/dump_verdicts.py --seeds 7 --rounds 1`` is the slowest single
call of the suite. The golden file, the reachability check and the smoke
test of the script all read the same run: in this process, under
``sys.setprofile``, its stdout captured.
"""

import contextlib
import io
import sys
import types

import pytest


@pytest.fixture(scope="session")
def seed7_dump():
    """The dump at seed 7, one round: ``status``, what ``main`` returned;
    ``out``, its stdout as text; ``codes``, the code object of every
    function entered while it ran."""
    # support imports sympy: imported here, not at the top, a missing sympy
    # still only skips the modules that ``importorskip`` it
    from support import load_script

    dump = load_script("dump_verdicts")
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        sys.setprofile(profile)
        try:
            status = dump.main(["--seeds", "7", "--rounds", "1"])
        finally:
            sys.setprofile(None)
    return types.SimpleNamespace(status=status, out=out.getvalue(), codes=codes)
