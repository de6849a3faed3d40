"""Run the golden checksum checks of tests/test_golden.py without pytest.

Standard library only, so the byte-identity of results can be checked on any
Python the package supports, including ones without pytest installed:

    python tests/run_golden.py

Each check runs in its own temporary directory. Prints one line per check
and exits non-zero if any fails. The file name keeps pytest from collecting
it.
"""

import os
import pathlib
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import test_golden  # noqa: E402

CHECKS = [
    "test_golden_model_file",
    "test_golden_parse_by_a_loaded_model",
    "test_golden_derivations",
    "test_golden_reports",
    "test_golden_conllu_schemes",
]


def main() -> int:
    failed = 0
    for name in CHECKS:
        check = getattr(test_golden, name)
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
