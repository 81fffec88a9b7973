"""envdet's three scipy ufuncs, ``gammaln``, ``psi`` and ``hurwitz_zeta``,
come from ``scipy.special._ufuncs`` without ``scipy.special``'s package
import: importing envdet leaves no ``scipy.special`` module, and none of
the numpy and scipy packages that the package import would pull in, in
``sys.modules``.  A later ``import scipy.special`` runs in full and exports
the same ufunc objects; an earlier one lends envdet its ``_ufuncs``.  A
failed import leaves ``sys.modules`` as it found it.  And with the one
768 KiB block that ``specfun`` frees at import, a warm ``verify`` suite
takes a few hundred minor page faults, not thousands.  No command imports
``numpy.ma``, which ``np.unique`` would on its first call."""

import importlib
import json
import os
import platform
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

from envdet import specfun


def _python(script: str) -> dict:
    """Run ``script`` in a fresh interpreter on this envdet, warnings as
    errors, and return the JSON object it prints last."""
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", textwrap.dedent(script)],
        env=dict(os.environ, PYTHONPATH=str(Path(specfun.__file__).parents[1])),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    return json.loads(done.stdout.splitlines()[-1])


def test_envdet_runs_no_scipy_special_package_import_and_a_later_one_works_in_full():
    found = _python("""
        import json
        import sys
        import numpy as np
        import envdet.cli
        from envdet import specfun
        heavy = ("scipy.special", "numpy.f2py", "numpy.testing", "scipy._lib.array_api_compat")
        loaded = sorted(n for n in sys.modules
                        if n in heavy or n.startswith(tuple(h + "." for h in heavy)))
        import scipy.special
        x = np.linspace(0.0, 1.0, 1025)[1:-1]
        try:
            with scipy.special.errstate(all="raise"):
                specfun.gammaln(-1.0)
            raised = None
        except scipy.special.SpecialFunctionError:
            raised = "SpecialFunctionError"
        print(json.dumps({
            "loaded": loaded,
            "same_gammaln": scipy.special.gammaln is specfun.gammaln,
            "same_psi": scipy.special.psi is specfun.psi,
            "zeta_bits": (scipy.special.zeta(2.0, x).tobytes()
                          == specfun.hurwitz_zeta(2.0, x).tobytes()),
            "raised": raised,
        }))
    """)
    assert found == {
        "loaded": [],
        "same_gammaln": True,
        "same_psi": True,
        "zeta_bits": True,
        "raised": "SpecialFunctionError",
    }


def test_envdet_takes_the_ufuncs_of_an_imported_scipy_special():
    found = _python("""
        import json
        import sys
        import scipy.special
        from envdet import specfun
        print(json.dumps([
            specfun._ufuncs is scipy.special._ufuncs,
            sys.modules["scipy.special"] is scipy.special,
            specfun.gammaln is scipy.special.gammaln,
            specfun.psi is scipy.special.psi,
        ]))
    """)
    assert found == [True, True, True, True]


def test_a_failed_import_under_the_stand_in_re_raises_and_leaves_sys_modules_as_it_was(
    monkeypatch,
):
    for name in [n for n in sys.modules if n == "scipy.special" or n.startswith("scipy.special.")]:
        monkeypatch.delitem(sys.modules, name)
    before = dict(sys.modules)
    stand_ins = []

    def failing_import(name):
        stand_ins.append(sys.modules["scipy.special"])
        sys.modules["scipy.special._planted"] = types.ModuleType("scipy.special._planted")
        raise ImportError(f"planted failure importing {name}")

    monkeypatch.setattr(importlib, "import_module", failing_import)
    with pytest.raises(ImportError, match="planted failure importing scipy.special._ufuncs"):
        specfun._scipy_ufuncs()
    # the stand-in was a bare package: its __init__, which binds gammaln, never ran
    (stand_in,) = stand_ins
    assert stand_in.__path__ and not hasattr(stand_in, "gammaln")
    assert [n for n in sys.modules if n.startswith("scipy.special")] == []
    assert [n for n, module in before.items() if sys.modules.get(n) is not module] == []


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="glibc's dynamic mmap threshold",
)
def test_a_warm_verify_suite_takes_few_minor_faults():
    # about 400 per suite with specfun's 768 KiB block freed, 1500-3900
    # without it, when the heap top of criterion 5's quadrature is trimmed
    # and faulted back in on every suite
    faults = _python("""
        import json
        import resource
        from envdet import verify
        for _ in range(3):
            verify.run_suite("full")
        faults = []
        for _ in range(5):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            verify.run_suite("full")
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        print(json.dumps(faults))
    """)
    assert len(faults) == 5 and max(faults) < 1000, faults


def test_no_command_imports_numpy_ma(tmp_path):
    # numpy.ma costs 8-24 ms and about 0.8 MB on its first import
    loaded = _python(f"""
        import contextlib
        import io
        import json
        import sys
        from envdet import cli
        commands = {{
            "scan": ["scan", "--from", "-0.9", "--to", "-0.6", "--count", "50",
                     "--out", {str(tmp_path / "grid.csv")!r}],
            "scan --exact-points": ["scan", "--from", "-0.9", "--to", "-0.6", "--count", "50",
                                    "--out", {str(tmp_path / "exact.csv")!r}, "--exact-points"],
            "verify --suite full": ["verify", "--suite", "full"],
            "eval": ["eval", "--beta", "-0.7", "--area", "1.5"],
            "critical": ["critical", "--area", "3"],
        }}
        loaded = {{}}
        for name, argv in commands.items():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            loaded[name] = [code, "numpy.ma" in sys.modules]
        print(json.dumps(loaded))
    """)
    assert loaded == {
        "scan": [0, False],
        "scan --exact-points": [0, False],
        "verify --suite full": [0, False],
        "eval": [0, False],
        "critical": [0, False],
    }
