"""Seeded input generator for the hds_tool benchmark.

Two shapes, both a pure function of the seed:

* a byte chain: one file whose every version applies byte edits (replace,
  insert and delete runs) to about `edit_fraction` of the previous one;
* a file tree: `files` files of `file_size` bytes, of which a fixed hot
  subset gets the same kind of edits every version.

Run as a script, it writes one workload's versions under <work>/gen/<v>/
(gen/<v>/data.bin for a chain, gen/<v>/<name> for a tree) and a
manifest.json naming, per version, the file a restore must reproduce: the
chain version itself, or for a tree expect/<v>, the path+size stream
hds_tool serializes the directory into when it is given as "src". The benchmark generates in a
child process so that its own resident set, which a child's ru_maxrss
inherits at exec, stays small.

    python3 inputs.py <work> <spec.json> <seed>
"""

import json
import os
import random
import sys

KIB = 1 << 10
MIB = 1 << 20


def edit(rng, data, fraction):
    """Replaces, deletes or inserts random runs of 64..4159 bytes (one kind
    in three each, as ByteStreamWorkload does) until about `fraction` of
    `data` has been touched."""
    budget = int(len(data) * fraction)
    while budget > 0 and len(data) > 4096:
        start = rng.randrange(len(data) - 1)
        run = min(64 + rng.randrange(4096), budget, len(data) - start)
        kind = rng.randrange(3)
        if kind == 0:
            data[start:start + run] = rng.randbytes(run)
        elif kind == 1:
            del data[start:start + run]
        else:
            data[start:start] = rng.randbytes(run)
        budget -= run


def byte_chain(seed, size, versions, fraction):
    """Returns `versions` successive versions of one evolving file."""
    rng = random.Random(seed)
    data = bytearray(rng.randbytes(size))
    out = [bytes(data)]
    for _ in range(versions - 1):
        edit(rng, data, fraction)
        out.append(bytes(data))
    return out


def file_tree(seed, files, file_size, versions, hot_fraction, fraction):
    """Returns `versions` dicts {relative name: bytes}; the hot files (a
    seeded `hot_fraction` of the names) are edited every version."""
    rng = random.Random(seed)
    names = ["f%04d.bin" % i for i in range(files)]
    tree = {name: bytearray(rng.randbytes(file_size)) for name in names}
    hot = sorted(rng.sample(names, max(1, round(files * hot_fraction))))
    out = [{name: bytes(data) for name, data in tree.items()}]
    for _ in range(versions - 1):
        for name in hot:
            edit(rng, tree[name], fraction)
        out.append({name: bytes(data) for name, data in tree.items()})
    return out, hot


def write_file(path, data):
    with open(path, "wb") as f:
        f.write(data)


def write_tree(root, tree):
    os.makedirs(root)
    for name, data in tree.items():
        write_file(os.path.join(root, name), data)


def tree_stream(prefix, tree):
    """hds_tool's serialization of a directory given as `prefix`: for each
    file in path order, "<path>\\n<size>\\n" followed by its bytes."""
    parts = []
    for name in sorted(tree):
        data = tree[name]
        parts.append(("%s/%s\n%d\n" % (prefix, name, len(data))).encode())
        parts.append(data)
    return b"".join(parts)


def generate(work, spec, seed):
    """Writes the workload's inputs under `work`; returns the manifest."""
    gen = os.path.join(work, "gen")
    manifest = {"hot": [], "versions": {}}
    if spec["shape"] == "chain":
        chain = byte_chain(seed, spec["size"], spec["versions"],
                           spec["fraction"])
        for v, data in enumerate(chain, 1):
            os.makedirs(os.path.join(gen, str(v)))
            write_file(os.path.join(gen, str(v), "data.bin"), data)
            manifest["versions"][v] = {"bytes": len(data),
                                       "expect": "gen/%d/data.bin" % v}
    else:
        trees, manifest["hot"] = file_tree(
            seed, spec["files"], spec["file_size"], spec["versions"],
            spec["hot"], spec["fraction"])
        os.makedirs(os.path.join(work, "expect"))
        for v, tree in enumerate(trees, 1):
            write_tree(os.path.join(gen, str(v)), tree)
            stream = tree_stream("src", tree)
            write_file(os.path.join(work, "expect", str(v)), stream)
            manifest["versions"][v] = {"bytes": len(stream),
                                       "expect": "expect/%d" % v,
                                       "files": sorted(tree)}
    with open(os.path.join(work, "manifest.json"), "w") as f:
        json.dump(manifest, f)
    return manifest


if __name__ == "__main__":
    with open(sys.argv[2]) as f:
        generate(sys.argv[1], json.load(f), int(sys.argv[3]))
