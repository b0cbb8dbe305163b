#!/usr/bin/env python3
"""Self-test of the benchmark's output check: it must flag a wrapped count.

`ucqc count data/psi1.ucq data/k34_db.facts` overflows the native 63-bit
int and prints the true count mod 2^63.  This test computes the exact
count with the benchmark's big-integer oracle, checks it against the known
value, and shows that `run.count_ok` rejects the wrapped output.  The
input lies above 2^62, which is why no timed workload uses it.

Run from the repository root (the oracle takes about a minute):

    python3 ucqbench/test_check.py
"""

import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

QUERY = os.path.join("data", "psi1.ucq")
DB = os.path.join("data", "k34_db.facts")
TRUE_COUNT = "296855721401708823200"
WRAPPED = "1707816222355997344"  # TRUE_COUNT mod 2^63


class WrapIsFlagged(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.oracle = run.tool("oracle", DB, QUERY, timeout=600)["counts"][0]

    def test_oracle_is_exact(self):
        self.assertEqual(self.oracle, TRUE_COUNT)
        self.assertEqual(int(TRUE_COUNT) % 2 ** 63, int(WRAPPED))
        self.assertGreaterEqual(int(self.oracle), run.NATIVE_LIMIT)

    def test_wrapped_answer_fails_the_check(self):
        self.assertFalse(run.count_ok(WRAPPED, 0, self.oracle))
        self.assertTrue(run.count_ok(TRUE_COUNT, 0, self.oracle))

    def test_live_cli_answer_is_judged_by_value(self):
        # whatever the CLI prints today, the check accepts it exactly
        # when it equals the exact count
        _, out, code, _ = run.count_once(QUERY, DB)
        self.assertEqual(run.count_ok(out, code, self.oracle), out == TRUE_COUNT)
        if out == WRAPPED:
            print("\nCLI still wraps: printed %s, exact %s" % (out, TRUE_COUNT),
                  file=sys.stderr)


if __name__ == "__main__":
    unittest.main()
