#!/usr/bin/env python3
"""Fail unless every gtest binary lists stable, readable test ids.

    python3 check_test_ids.py BINARY...

Builds each binary's ctest ids twice from --gtest_list_tests, the way
gtest_discover_tests does ("/<index>  # GetParam() = <value>" becomes
"/<value>"). The two runs must agree, and no id may contain "0x": a
parameter printed as a pointer moves with address-space randomisation.
A custom name generator leaves a "# GetParam() = <bytes>" tail in the
id; that tail is a byte dump of the value and stays put across builds.
"""
import re
import subprocess
import sys


def test_ids(binary):
    listing = subprocess.run([binary, "--gtest_list_tests"], check=True,
                             capture_output=True, text=True).stdout
    ids, suite = [], ""
    for line in filter(str.strip, listing.splitlines()):
        if line.startswith("  "):
            test = re.sub(r"/[0-9]+[ #]+GetParam\(\) = ", "/", line.strip())
            ids.append(f"{suite}.{test}")
        else:
            suite = re.sub(r"\.( *#.*)?$", "", line)
    return ids


if len(sys.argv) < 2:
    sys.exit(__doc__)
problems = []
for binary in sys.argv[1:]:
    ids = test_ids(binary)
    if ids != test_ids(binary):
        problems.append(f"{binary}: ids differ between two listings")
    problems += [f"{binary}: unstable id {i!r}" for i in ids
                 if "0x" in i]
print("\n".join(problems + [f"{len(problems)} problems"]))
sys.exit(1 if problems else 0)
