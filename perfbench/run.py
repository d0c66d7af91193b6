#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

Run from the repository root:

    python3 perfbench/run.py --workload hotspot --seed 1 --seconds 10 --trace 0

It builds the Go command in this directory with every Go cache, temporary
and configuration directory under .bench_build/ in the current directory,
then runs it with the same arguments. The command's standard output is
passed through, so its last line is the JSON result. A failed build exits
non-zero without printing a result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def source_rev(root, env):
    """The git commit if the tree is a git checkout, plus a digest of the
    Go sources and module files, so results stay attributable without git."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    rev = "src-sha256:" + h.hexdigest()[:16]
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        git_env = dict(env, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=git_env, capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
        rev = "git:" + sha + " " + rev
    except (OSError, subprocess.SubprocessError):
        pass
    return rev


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"), ("GOPATH", "gopath"),
                     ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp"), ("HOME", "home"),
                     ("XDG_CACHE_HOME", "home/.cache"), ("XDG_CONFIG_HOME", "home/.config")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOFLAGS="-buildvcs=false", GOPROXY="off", GOTOOLCHAIN="local", GOENV="off",
               GOTELEMETRY="off", CGO_ENABLED="0")
    binary = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    args = sys.argv[1:] + ["--workdir", os.path.join(build, "perfbench"), "--rev", source_rev(root, env)]
    return subprocess.run([binary] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
