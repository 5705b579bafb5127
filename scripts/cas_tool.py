#!/usr/bin/env python3
"""Audit and garbage-collection tool for the content-addressed
artifact store (DESIGN.md §16, src/sim/cas/store.cc).

The store needs no C++ toolchain to audit: every object file embeds
its key text, and the hash is FNV-1a-128 (bit-exact Python twin in
gen_code_epoch.py). Commands:

    ls <dir>                 one line per object: kind, payload
                             bytes, workload, key hash
    verify <dir>             full integrity check of every object
                             (header, embedded key, filename, payload
                             hash) plus key-schema validation against
                             scripts/artifact_inputs.json and
                             code-epoch staleness detection
    gc <dir> --max-bytes N   evict oldest-modification-time objects
                             until total size <= N (0 empties)
    gc <dir> --drop-stale    also evict objects whose code.epoch no
                             longer matches the current tree
    --self-test              exercise the parser/verifier against
                             fixture objects written by this script

Exit status: 0 clean, 1 findings (corrupt/invalid objects), 2 usage.
"""

import argparse
import contextlib
import io
import json
import os
import shutil
import struct
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from gen_code_epoch import FNV_OFFSET, fnv1a128, hex128, epochs

MAGIC = b"STARCAS1"
HEADER = struct.Struct("<8sQQQQQ")  # magic, version, klen, plen, hi, lo
VERSION = 1

# Which code-epoch entry guards each artifact kind;
# experiment_result keys by the whole-tree "pipeline" epoch.
KIND_EPOCH = {
    "step_a_trace": "step_a_trace",
    "step_b_checkpoint": "step_b_checkpoint",
    "experiment_result": "pipeline",
}


class Finding(Exception):
    pass


def parse_object(path):
    """Header + key text + payload of one .cas file.
    Raises Finding on any structural problem."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise Finding("unreadable: %s" % e)
    if len(blob) < HEADER.size:
        raise Finding("truncated header (%d bytes)" % len(blob))
    magic, version, klen, plen, hi, lo = HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise Finding("bad magic %r" % magic)
    if version != VERSION:
        raise Finding("unsupported version %d" % version)
    if len(blob) != HEADER.size + klen + plen:
        raise Finding("size mismatch: header says %d, file has %d"
                      % (HEADER.size + klen + plen, len(blob)))
    key = blob[HEADER.size:HEADER.size + klen]
    payload = blob[HEADER.size + klen:]
    try:
        key_text = key.decode("utf-8")
    except UnicodeDecodeError:
        raise Finding("key text is not UTF-8")
    return key_text, payload, (hi << 64) | lo


def key_fields(key_text):
    """The canonical multi-line "field=value" key as a dict."""
    fields = {}
    for line in key_text.splitlines():
        if not line:
            continue
        if "=" not in line:
            raise Finding("malformed key line %r" % line)
        name, value = line.split("=", 1)
        if name in fields:
            raise Finding("duplicate key field %r" % name)
        fields[name] = value
    return fields


def list_objects(store_dir):
    """Sorted absolute paths of every .cas object."""
    objects = os.path.join(store_dir, "objects")
    out = []
    if not os.path.isdir(objects):
        return out
    for shard in sorted(os.listdir(objects)):
        sub = os.path.join(objects, shard)
        if not os.path.isdir(sub):
            continue
        for name in sorted(os.listdir(sub)):
            if name.endswith(".cas"):
                out.append(os.path.join(sub, name))
    return out


def load_manifest(root):
    path = os.path.join(root, "scripts", "artifact_inputs.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def validate_key(fields, manifest):
    """Key text vs the declared-input schema: the object's kind must
    be a manifest artifact, every declared cache-key field must be
    present, and nothing undeclared may leak in (extra fields would
    mean the producer keys on inputs the analyzer never audited)."""
    kind = fields.get("kind")
    if kind is None:
        raise Finding("key has no 'kind' field")
    art = manifest.get("artifacts", {}).get(kind)
    if art is None:
        raise Finding("unknown artifact kind %r" % kind)
    declared = set(art.get("cache_key", []))
    present = set(fields) - {"kind"}
    env = {f for f in present if f.startswith("env.")}
    missing = declared - present
    if missing:
        raise Finding("kind %s: missing declared key fields %s"
                      % (kind, sorted(missing)))
    extra = present - declared - env
    if extra:
        raise Finding("kind %s: undeclared key fields %s"
                      % (kind, sorted(extra)))
    return kind


def object_is_stale(fields, kind, epoch_table):
    """True when the object's code.epoch no longer matches the
    current source tree (safe to keep — it can only miss — but GC
    fodder)."""
    want = epoch_table.get(KIND_EPOCH.get(kind, ""), None)
    have = fields.get("code.epoch")
    return have is not None and want is not None and have != want


def cmd_ls(args, root):
    rows = []
    for path in list_objects(args.store):
        try:
            key_text, payload, _ = parse_object(path)
            fields = key_fields(key_text)
            rows.append((fields.get("kind", "?"), len(payload),
                         fields.get("workload.name", "-"),
                         os.path.basename(path)[:16]))
        except Finding as e:
            rows.append(("CORRUPT", 0, str(e),
                         os.path.basename(path)[:16]))
    for kind, size, workload, name in rows:
        print("%-18s %10d  %-12s %s" % (kind, size, workload, name))
    print("%d object(s)" % len(rows))
    return 0


def cmd_verify(args, root):
    manifest = load_manifest(root)
    epoch_table = epochs(root, os.path.join(
        root, "scripts", "artifact_inputs.json"))
    bad = stale = ok = 0
    for path in list_objects(args.store):
        rel = os.path.relpath(path, args.store)
        try:
            key_text, payload, stored_hash = parse_object(path)
            if fnv1a128(payload) != stored_hash:
                raise Finding("payload hash mismatch")
            name_hex = os.path.basename(path)[:-len(".cas")]
            if hex128(fnv1a128(key_text.encode("utf-8"))) != \
                    name_hex:
                raise Finding("filename does not hash the "
                              "embedded key")
            fields = key_fields(key_text)
            kind = validate_key(fields, manifest)
            if object_is_stale(fields, kind, epoch_table):
                stale += 1
                print("STALE   %s (code.epoch behind the tree)"
                      % rel)
            else:
                ok += 1
        except Finding as e:
            bad += 1
            print("INVALID %s: %s" % (rel, e))
    print("cas-verify: %d ok, %d stale, %d invalid"
          % (ok, stale, bad))
    return 1 if bad else 0


def cmd_gc(args, root):
    entries = []
    for path in list_objects(args.store):
        st = os.stat(path)
        entries.append((st.st_mtime, st.st_size, path))
    entries.sort()  # oldest first
    total = sum(e[1] for e in entries)
    removed = 0

    if args.drop_stale:
        manifest = load_manifest(root)
        epoch_table = epochs(root, os.path.join(
            root, "scripts", "artifact_inputs.json"))
        kept = []
        for mtime, size, path in entries:
            try:
                key_text, _, _ = parse_object(path)
                fields = key_fields(key_text)
                kind = validate_key(fields, manifest)
                if object_is_stale(fields, kind, epoch_table):
                    raise Finding("stale")
                kept.append((mtime, size, path))
            except Finding:
                os.remove(path)
                total -= size
                removed += 1
        entries = kept

    if args.max_bytes is not None:
        while entries and total > args.max_bytes:
            _, size, path = entries.pop(0)
            os.remove(path)
            total -= size
            removed += 1
    print("cas-gc: removed %d object(s), %d byte(s) remain"
          % (removed, total))
    return 0


def write_object(store_dir, key_text, payload):
    """Python twin of Store::putObject, for the self-test."""
    key = key_text.encode("utf-8")
    h = fnv1a128(payload)
    name = hex128(fnv1a128(key))
    shard = os.path.join(store_dir, "objects", name[:2])
    os.makedirs(shard, exist_ok=True)
    path = os.path.join(shard, name + ".cas")
    blob = HEADER.pack(MAGIC, VERSION, len(key), len(payload),
                       (h >> 64) & ((1 << 64) - 1),
                       h & ((1 << 64) - 1)) + key + payload
    with open(path, "wb") as fh:
        fh.write(blob)
    return path


def self_test(root):
    manifest = load_manifest(root)
    epoch_table = epochs(root, os.path.join(
        root, "scripts", "artifact_inputs.json"))
    art = manifest["artifacts"]["step_a_trace"]
    fields = {"kind": "step_a_trace"}
    for f in art["cache_key"]:
        fields[f] = "x"
    fields["code.epoch"] = epoch_table["step_a_trace"]
    key_text = "".join("%s=%s\n" % kv for kv in fields.items())
    payload = b"\x01\x02\x03payload"

    tmp = tempfile.mkdtemp(prefix="cas_selftest_")
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)

    try:
        path = write_object(tmp, key_text, payload)
        kt, pl, h = parse_object(path)
        expect(kt == key_text and pl == payload, "round-trip")
        expect(fnv1a128(pl) == h, "payload hash")
        expect(validate_key(key_fields(kt), manifest) ==
               "step_a_trace", "schema validation")
        expect(not object_is_stale(key_fields(kt), "step_a_trace",
                                   epoch_table), "fresh epoch")

        # A stale epoch is detected but is not corruption.
        stale_fields = dict(fields, **{"code.epoch": "0" * 32})
        expect(object_is_stale(stale_fields, "step_a_trace",
                               epoch_table), "stale epoch detected")

        # An undeclared key field must fail validation.
        bad_fields = dict(fields, **{"wallclock.start": "12:00"})
        try:
            validate_key(bad_fields, manifest)
            expect(False, "undeclared field accepted")
        except Finding:
            pass

        # Flip one payload byte: hash mismatch.
        with open(path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([last[0] ^ 0xFF]))
        _, pl, h = parse_object(path)
        expect(fnv1a128(pl) != h, "corruption detected")

        # Truncate mid-payload: structural finding.
        with open(path, "r+b") as fh:
            fh.truncate(HEADER.size + len(key_text) + 1)
        try:
            parse_object(path)
            expect(False, "truncation accepted")
        except Finding:
            pass

        # An object whose kind the manifest no longer declares (a
        # store filled by older code) is invalid under verify and
        # evicted by gc --drop-stale.
        retired = os.path.join(tmp, "retired")
        write_object(retired, "kind=retired_artifact\nphase=1\n",
                     payload)
        with contextlib.redirect_stdout(io.StringIO()) as log:
            rc = cmd_verify(argparse.Namespace(store=retired), root)
        expect(rc == 1 and "INVALID" in log.getvalue(),
               "retired kind flagged invalid")
        with contextlib.redirect_stdout(io.StringIO()):
            cmd_gc(argparse.Namespace(store=retired, max_bytes=None,
                                      drop_stale=True), root)
        expect(list_objects(retired) == [],
               "gc --drop-stale evicts retired kind")

        # GC to zero empties the store.
        ns = argparse.Namespace(store=tmp, max_bytes=0,
                                drop_stale=False)
        cmd_gc(ns, root)
        expect(list_objects(tmp) == [], "gc empties")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if failures:
        print("cas-tool self-test FAILED: %s" % ", ".join(failures))
        return 1
    print("cas-tool self-test passed")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--self-test", action="store_true")
    sub = ap.add_subparsers(dest="cmd")
    p_ls = sub.add_parser("ls")
    p_ls.add_argument("store")
    p_vf = sub.add_parser("verify")
    p_vf.add_argument("store")
    p_gc = sub.add_parser("gc")
    p_gc.add_argument("store")
    p_gc.add_argument("--max-bytes", type=int, default=None)
    p_gc.add_argument("--drop-stale", action="store_true")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test(args.root)
    if args.cmd == "ls":
        return cmd_ls(args, args.root)
    if args.cmd == "verify":
        return cmd_verify(args, args.root)
    if args.cmd == "gc":
        return cmd_gc(args, args.root)
    ap.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
