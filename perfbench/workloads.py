"""Seeded operation scripts for the driver, with their expected results.

Each workload replays the transaction shape of one experiment that the
repository's bench/ harness runs for the paper (the source is named in
each generator), with the same sizes and counts. The seed picks the
keys, pages, order and bytes; every seed yields the same amount of work.
Each generator returns the script text (see _driver/driver.ml for the
format) and the expected digests, computed from a plain Python model of
the stack's contents.
"""

import hashlib
import random

PAGE = 4096


def md5_hex(data):
    return hashlib.md5(data).hexdigest()


def hexstr(rng, n):
    """n seeded hex digits: a value of n bytes with no spaces in it."""
    return "%0*x" % (n, rng.getrandbits(4 * n))


class Script:
    def __init__(self, stack):
        self.lines = ["perfbench-script 2", "stack " + stack]
        self.round_ops = []  # ops per measured transaction
        self.round_digests = []
        self.verify_ops = 0
        self.verify_digest = None

    def text(self):
        return "\n".join(self.lines) + "\n"

    def rounds_digest(self):
        return md5_hex("".join(self.round_digests).encode())

    def round(self, kind, ops, out):
        """Close one measured transaction: B runs in a write transaction
        (or ends with a persist), Q is read-only."""
        self.lines.append(kind)
        self.lines.extend(ops)
        self.round_ops.append(len(ops))
        self.round_digests.append(md5_hex("".join(out).encode()))


class Tables:
    """Model of the database's tables, keyed by table index and int key."""

    def __init__(self, script, names):
        script.lines.append("tables " + " ".join(names))
        self.rows = [{} for _ in names]

    def put(self, ops, t, k, v):
        self.rows[t][k] = v
        ops.append("P %d %d %s" % (t, k, v))

    def get(self, ops, out, t, k):
        ops.append("G %d %d" % (t, k))
        v = self.rows[t].get(k)
        out.append("-\n" if v is None else "v:%s\n" % v)

    def delete(self, ops, out, t, k):
        ops.append("D %d %d" % (t, k))
        out.append("d:1\n" if self.rows[t].pop(k, None) is not None else "d:0\n")


def dbbench(stack, seed):
    """Table 7, Table 8 and Figure 4 (bench/exp_sqlite.ml, run_dbbench
    over Workloads.Dbbench): random write transactions of 4 KiB, that is
    4096 / (8 + 128) = 30 puts of 128-byte values, over 100,000 keys,
    from an empty table to 30,000 writes (1,000 transactions). Table 8's
    configuration, and the first row of Table 7 and Figure 4."""
    rng = random.Random(seed)
    s = Script(stack)
    nkeys, vsize, txn_bytes, total_writes = 100_000, 128, 4096, 30_000
    db = Tables(s, ["kv"])
    per_txn = txn_bytes // (8 + vsize)
    for _ in range(total_writes // per_txn):
        ops = []
        for _ in range(per_txn):
            db.put(ops, 0, rng.randrange(nkeys), hexstr(rng, vsize))
        s.round("B", ops, [])
    # Verify every key written and as many that never were.
    written = sorted(db.rows[0])
    absent = sorted(rng.sample(sorted(set(range(nkeys)) - set(written)), 1000))
    s.lines.append("V")
    ops, out = [], []
    for k in written + absent:
        db.get(ops, out, 0, k)
    s.lines.extend(ops)
    s.verify_ops = len(ops)
    s.verify_digest = md5_hex("".join(out).encode())
    return s


def tatp(stack, seed):
    """Figure 5 (bench/exp_sqlite.ml, tatp_setup and tatp_run over
    Workloads.Tatp) at its middle size of 10,000 subscribers. Set-up
    fills subscriber (92-byte rows), access_info and special_facility
    (40 bytes) in write transactions of 256 subscribers. Each measured
    transaction is one operation of the standard TATP mix: 35% get
    subscriber data, 10% get new destination, 35% get access data (reads,
    outside any transaction), 2% update subscriber data, 14% update
    location, 2% insert and 2% delete call forwarding (24 bytes), each a
    write transaction of its own; 8,000 operations."""
    rng = random.Random(seed)
    s = Script(stack)
    subscribers, nops = 10_000, 8_000
    sub, ai, sf, cf = range(4)
    db = Tables(s, ["subscriber", "access_info", "special_facility", "call_forwarding"])
    for lo in range(0, subscribers, 256):
        s.lines.append("L")
        for k in range(lo, min(subscribers, lo + 256)):
            db.put(s.lines, sub, k, hexstr(rng, 92))
            db.put(s.lines, ai, k, hexstr(rng, 40))
            db.put(s.lines, sf, k, hexstr(rng, 40))
    for _ in range(nops):
        k = rng.randrange(subscribers)
        p = rng.randrange(100)
        ops, out = [], []
        if p < 35:
            db.get(ops, out, sub, k)
        elif p < 45:
            db.get(ops, out, cf, k)
        elif p < 80:
            db.get(ops, out, ai, k)
        elif p < 82:
            db.put(ops, sf, k, hexstr(rng, 40))
        elif p < 96:
            db.put(ops, sub, k, hexstr(rng, 92))
        elif p < 98:
            db.put(ops, cf, k, hexstr(rng, 24))
        else:
            db.delete(ops, out, cf, k)
        s.round("Q" if p < 80 else "B", ops, out)
    s.lines.append("V")
    ops, out = [], []
    for t in range(4):
        for k in range(subscribers):
            db.get(ops, out, t, k)
    s.lines.extend(ops)
    s.verify_ops = len(ops)
    s.verify_digest = md5_hex("".join(out).encode())
    return s


def region(stack, seed):
    """Figure 3 (bench/exp_micro.ml, fig3): a 32 MiB region (8,192 pages)
    populated with a 16-byte store per page and persisted. Each measured
    transaction stores 64 bytes at the start of distinct random pages
    and persists once. The dirty sets are Figure 3's 4, 16, 64 and 256
    KiB, each used equally often in seeded order; 64 KiB is also the
    dirty set of Tables 2, 5 and 10. 250 of each, 1,000 in all. Figure
    3's 1 MiB point is left out: it would triple the bytes each pass
    writes, and the host memory the copy-on-write device keeps."""
    rng = random.Random(seed)
    s = Script(stack)
    pages, head, cycles = 8192, 64, 250
    s.lines.append("region_pages %d" % pages)
    heads = [bytearray(head) for _ in range(pages)]

    def write(ops, p, data):
        heads[p][:len(data)] = data.encode()
        ops.append("W %d %s" % (p * PAGE, data))

    s.lines.append("L")
    for p in range(pages):
        write(s.lines, p, hexstr(rng, 16))
    for _ in range(cycles):
        sizes = [4, 16, 64, 256]
        rng.shuffle(sizes)
        for kib in sizes:
            ops = []
            for p in rng.sample(range(pages), kib * 1024 // PAGE):
                write(ops, p, hexstr(rng, head))
            s.round("B", ops, [])
    # Every store lands in a page's first 64 bytes: read them all back.
    s.lines.append("V")
    for p in range(pages):
        s.lines.append("R %d %d" % (p * PAGE, head))
    s.verify_ops = pages
    s.verify_digest = md5_hex(b"".join(heads))
    return s


# name: (stack the driver builds, generator)
WORKLOADS = {
    "dbbench_msnap": ("sqlite_msnap", dbbench),
    "dbbench_wal": ("sqlite_wal", dbbench),
    "tatp_msnap": ("sqlite_msnap", tatp),
    "persist_msnap": ("region_msnap", region),
    "ckpt_aurora": ("region_aurora", region),
}


def generate(workload, seed):
    stack, gen = WORKLOADS[workload]
    return gen(stack, seed)
