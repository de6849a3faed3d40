"""Run the golden checksum checks of tests/test_golden.py without pytest.

Standard library only, so the byte-identity of results can be checked on any
Python the package supports, including ones without pytest installed:

    python tests/run_golden.py

Each check runs in its own temporary directory. Prints one line per check
and exits non-zero if any fails. The last check runs the golden-reports
experiment twice in one directory, the second time with no split readable,
so the reports read back from the cache are pinned too. The file name keeps
pytest from collecting it.
"""

import os
import pathlib
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import test_golden  # noqa: E402
from udscheme import harness  # noqa: E402


def test_golden_reports_from_the_cache(tmp_path):
    """test_golden_reports, then again over its cache: every scheme is a hit,
    and reading a split is refused."""
    test_golden.test_golden_reports(tmp_path)
    real = harness.read_conllu_file

    def refuse(path):
        raise AssertionError("a fully cached rerun read %s" % path)

    harness.read_conllu_file = refuse
    try:
        test_golden.test_golden_reports(tmp_path)
    finally:
        harness.read_conllu_file = real


CHECKS = [
    test_golden.test_golden_model_file,
    test_golden.test_golden_parse_by_a_loaded_model,
    test_golden.test_golden_derivations,
    test_golden.test_golden_reports,
    test_golden.test_golden_conllu_schemes,
    test_golden_reports_from_the_cache,
]


def main() -> int:
    failed = 0
    for check in CHECKS:
        name = check.__name__
        try:
            if check.__code__.co_argcount:  # takes a tmp_path
                with tempfile.TemporaryDirectory() as tmp:
                    check(pathlib.Path(tmp))
            else:
                check()
        except Exception:
            failed += 1
            print("FAIL %s" % name)
            traceback.print_exc()
        else:
            print("ok   %s" % name)
    print("Python %s: %d of %d golden checks failed" % (sys.version.split()[0], failed, len(CHECKS)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
