#!/usr/bin/env python3
"""Repo-hygiene gate: no stray top-level entries sneak into the tree.

Walks `git ls-files` and fails (exit 1) if any tracked path lives under a
top-level directory — or is a top-level file — that the allowlist below
does not name. Scratch directories (`examples_tmp/`, `notes/`, editor
droppings) historically accumulate at the root between PRs; this check
turns "someone eventually notices" into a CI failure with a precise list.

Extending the tree is a one-line allowlist edit here, reviewed like any
other change.

Usage: check_hygiene.py  (run from anywhere inside the repo)
"""

import subprocess
import sys

ALLOWED_DIRS = {
    ".claude",
    ".github",
    "crates",
    "examples",
    "measure",
    "scripts",
    "shims",
    "src",
    "tests",
}

ALLOWED_FILES = {
    ".gitignore",
    "BENCH_10.json",
    "BENCHMARK.json",
    "CHANGES.md",
    "Cargo.lock",
    "Cargo.toml",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ISSUE.md",
    "PAPER.md",
    "PAPERS.md",
    "README.md",
    "ROADMAP.md",
    "SNIPPETS.md",
    "rustfmt.toml",
}


def main() -> None:
    files = subprocess.run(
        ["git", "ls-files"], capture_output=True, text=True, check=True
    ).stdout.splitlines()

    stray: set[str] = set()
    for path in files:
        top, sep, _ = path.partition("/")
        if sep:
            if top not in ALLOWED_DIRS:
                stray.add(top + "/")
        elif top not in ALLOWED_FILES:
            stray.add(top)

    if stray:
        print("FAIL: stray top-level entries:", file=sys.stderr)
        for s in sorted(stray):
            print(f"  - {s}", file=sys.stderr)
        print(
            "either remove them or extend the allowlist in "
            "scripts/check_hygiene.py",
            file=sys.stderr,
        )
        sys.exit(1)
    print(f"OK: {len(files)} tracked files, no stray top-level entries")


if __name__ == "__main__":
    main()
