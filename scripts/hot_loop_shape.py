#!/usr/bin/env python3
"""Pin the shape of the frame's hot loops in the release `repro` binary.

Disassembles the binary with `objdump -d -C` and prints, for each function
in HOT, the sorted call targets with their number of call sites, split into
ordinary calls (`call`), tail calls (`jmp` into another symbol), indirect
calls and panic sites (`core::panicking::*` and the `*_fail`/`*_failed`
index and unwrap panics).  The shape is deterministic
for a fixed rustc, so the output is compared with the committed expectation
file next to this script and any difference is printed as a unified diff.

    cargo build --release --bin repro
    python3 scripts/hot_loop_shape.py            # exit 1 on a difference
    python3 scripts/hot_loop_shape.py --write    # rewrite the expectation

A change that moves a line of the expectation (a new out-of-line call in a
hot loop, an inlined callee, more bounds checks) updates the file and says
why in CHANGES.md.  Panic-site counts can move with code generation alone:
an `#[inline(never)]` call added to one loop once took `run_trace` from 50
bounds-check sites to 41 without adding or removing an index: the optimiser
duplicated or merged the checks around it differently.  So a diff that
changes only counts, with the same call targets, is traced to its sites'
`Location` arguments (the `lea ...(%rip),%rdx` before each panic call
points at the file, line and column in `.data.rel.ro`) before `--write`
is run.  The first line records the rustc version the file was
written with; CI builds with that version (`rust-toolchain.toml` names
only `stable`), and a toolchain upgrade rewrites the file as its own change.
An optional argument names another binary to check.
"""

import collections
import difflib
import pathlib
import re
import subprocess
import sys

HOT = [
    "sim_cache::hierarchy::CacheHierarchy::run_read_trace",
    "sim_cache::hierarchy::CacheHierarchy::run_trace",
    "sim_core::machine::Machine::run_session",
    "analysis::edit_distance::scored_breakdown",
    "sim_cache::policy::PolicyDispatch::choose_victim_then_fill",
]

HERE = pathlib.Path(__file__).resolve().parent
EXPECTED = HERE / "hot_loop_shape.txt"
DEFAULT_BINARY = HERE.parent / "target" / "release" / "repro"

HEADER = re.compile(r"^[0-9a-f]+ <(.+)>:$")
# `call   73430 <core::panicking::panic_fmt>` or `jmp    b1db0 <foo>`.
DIRECT = re.compile(r"\s(call|jmp)\s+[0-9a-f]+ <(.+)>$")
INDIRECT = re.compile(r"\scall\s+\*")


def functions(disassembly):
    """Yields (symbol, body lines) for every function in the listing."""
    name, body = None, []
    for line in disassembly.splitlines():
        match = HEADER.match(line)
        if match:
            if name is not None:
                yield name, body
            name, body = match.group(1), []
        elif name is not None:
            body.append(line)
    if name is not None:
        yield name, body


def shape(name, body):
    """The lines describing one function's call targets and panic sites."""
    sites = collections.Counter()
    for line in body:
        direct = DIRECT.search(line)
        if direct:
            kind, target = direct.groups()
            # A jump inside the function (`<name+0x..>`) is control flow.
            if target == name or target.startswith(name + "+"):
                continue
            target = re.sub(r"\+0x[0-9a-f]+$", "", target)
            if target.startswith("core::panicking::") or re.search(r"_fail(ed)?$", target):
                kind = "panic"
            sites[(kind, target)] += 1
        elif INDIRECT.search(line):
            sites[("call", "*indirect")] += 1
    order = {"call": 0, "jmp": 1, "panic": 2}
    rows = sorted(sites.items(), key=lambda item: (order[item[0][0]], item[0][1]))
    distinct = len(rows)
    lines = [f"== {name} ({distinct} distinct targets)"]
    lines += [f"{kind:5} {count:3} {target}" for (kind, target), count in rows]
    return lines


def render(binary):
    rustc = subprocess.run(
        ["rustc", "--version"], capture_output=True, text=True, check=True
    ).stdout.split(" (")[0]
    listing = subprocess.run(
        ["objdump", "-d", "-C", "--no-show-raw-insn", str(binary)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    found = collections.defaultdict(list)
    for name, body in functions(listing):
        if name in HOT:
            found[name].append(body)
    lines = [f"# {rustc}, release profile"]
    for name in HOT:
        bodies = found.get(name)
        if not bodies:
            lines.append(f"== {name}: no symbol (inlined or renamed)")
        for body in bodies or []:
            lines += shape(name, body)
    return "\n".join(lines) + "\n"


def main(argv):
    write = "--write" in argv
    paths = [arg for arg in argv if arg != "--write"]
    binary = pathlib.Path(paths[0]) if paths else DEFAULT_BINARY
    if not binary.exists():
        sys.exit(f"{binary}: not found; run `cargo build --release --bin repro` first")
    actual = render(binary)
    if write:
        EXPECTED.write_text(actual)
        print(f"wrote {EXPECTED}")
        return 0
    expected = EXPECTED.read_text() if EXPECTED.exists() else ""
    if actual == expected:
        print(actual, end="")
        print("hot-loop shape: matches", EXPECTED.name)
        return 0
    sys.stdout.writelines(
        difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            fromfile=f"{EXPECTED.name} (committed)",
            tofile=f"{binary} (built)",
        )
    )
    print("hot-loop shape: differs from", EXPECTED.name, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
