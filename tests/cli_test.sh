#!/bin/sh
# Integration test for the `rprism` command-line tool.
# Usage: cli_test.sh <path-to-rprism-binary>
set -eu

RPRISM="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

# --- fixture programs ------------------------------------------------------
cat > "$WORK/old.rp" <<'EOF'
class Tax {
  Int rate;
  Tax(Int rate) { this.rate = rate; }
  Int apply(Int amount) { return amount + amount * this.rate / 100; }
}
main {
  var t = new Tax(10);
  print(t.apply(inputInt(0)));
  print(t.apply(50));
}
EOF
# The new version mistypes the rate: a regression for every input.
sed 's/new Tax(10)/new Tax(11)/' "$WORK/old.rp" > "$WORK/new.rp"

# --- run + trace capture ----------------------------------------------------
OUT="$("$RPRISM" run "$WORK/old.rp" --int-input 100 --trace "$WORK/old.rpt" 2>/dev/null)"
[ "$OUT" = "110
55" ] || fail "run output was: $OUT"
[ -f "$WORK/old.rpt" ] || fail "trace file not written"

# --- trace-dump -------------------------------------------------------------
"$RPRISM" trace-dump "$WORK/old.rpt" | grep -q -- "--> Tax-1.new(10)" \
  || fail "trace-dump missing the init entry"

# Scalar values print from their row's hash: extreme and negative Ints,
# Bools and Floats (negative zero, infinities, %.6g rounding) must dump
# exactly as the recorder that interned their text printed them.
cat > "$WORK/scalars.rp" <<'EOF'
class Box {
  Int i;
  Bool b;
  Float f;
  Unit put(Int i, Bool b, Float f) {
    this.i = i;
    this.b = b;
    this.f = f;
    return unit;
  }
}
main {
  var x = new Box();
  x.put(9223372036854775807, true, -0.0);
  x.put(-9223372036854775807 - 1, false, 1.0 / 0.0);
  x.put(-1025, true, -1.0 / 0.0);
  x.put(123456789012, false, 3.14159265358979);
  x.put(-7, true, 0.000001 / 1000000.0);
  x.put(1025, false, -123456789.5);
  x.put(0, true, 0.1);
}
EOF
cat > "$WORK/scalars.expected" <<'EOF'
trace 'run': 38 entries, 1 thread(s)
  [0] --> Box-1.new()   [t0 in main]
  [1] <-- Box-1.Box.<init>(..) ret=unit   [t0 in main]
  [2] --> Box-1.Box.put(9223372036854775807, true, -0)   [t0 in main]
  [3] set Box-1.i = 9223372036854775807   [t0 in Box.put]
  [4] set Box-1.b = true   [t0 in Box.put]
  [5] set Box-1.f = -0   [t0 in Box.put]
  [6] <-- Box-1.Box.put(..) ret=unit   [t0 in main]
  [7] --> Box-1.Box.put(-9223372036854775808, false, inf)   [t0 in main]
  [8] set Box-1.i = -9223372036854775808   [t0 in Box.put]
  [9] set Box-1.b = false   [t0 in Box.put]
  [10] set Box-1.f = inf   [t0 in Box.put]
  [11] <-- Box-1.Box.put(..) ret=unit   [t0 in main]
  [12] --> Box-1.Box.put(-1025, true, -inf)   [t0 in main]
  [13] set Box-1.i = -1025   [t0 in Box.put]
  [14] set Box-1.b = true   [t0 in Box.put]
  [15] set Box-1.f = -inf   [t0 in Box.put]
  [16] <-- Box-1.Box.put(..) ret=unit   [t0 in main]
  [17] --> Box-1.Box.put(123456789012, false, 3.14159)   [t0 in main]
  [18] set Box-1.i = 123456789012   [t0 in Box.put]
  [19] set Box-1.b = false   [t0 in Box.put]
  [20] set Box-1.f = 3.14159   [t0 in Box.put]
  [21] <-- Box-1.Box.put(..) ret=unit   [t0 in main]
  [22] --> Box-1.Box.put(-7, true, 1e-12)   [t0 in main]
  [23] set Box-1.i = -7   [t0 in Box.put]
  [24] set Box-1.b = true   [t0 in Box.put]
  [25] set Box-1.f = 1e-12   [t0 in Box.put]
  [26] <-- Box-1.Box.put(..) ret=unit   [t0 in main]
  [27] --> Box-1.Box.put(1025, false, -1.23457e+08)   [t0 in main]
  [28] set Box-1.i = 1025   [t0 in Box.put]
  [29] set Box-1.b = false   [t0 in Box.put]
  [30] set Box-1.f = -1.23457e+08   [t0 in Box.put]
  [31] <-- Box-1.Box.put(..) ret=unit   [t0 in main]
  [32] --> Box-1.Box.put(0, true, 0.1)   [t0 in main]
  [33] set Box-1.i = 0   [t0 in Box.put]
  [34] set Box-1.b = true   [t0 in Box.put]
  [35] set Box-1.f = 0.1   [t0 in Box.put]
  [36] <-- Box-1.Box.put(..) ret=unit   [t0 in main]
  [37] end thread-0   [t0 in main]
EOF
"$RPRISM" run "$WORK/scalars.rp" --trace "$WORK/scalars.rpt" > /dev/null 2>&1 \
  || fail "run of the scalar program failed"
"$RPRISM" trace-dump "$WORK/scalars.rpt" > "$WORK/scalars.txt" 2>/dev/null
cmp -s "$WORK/scalars.expected" "$WORK/scalars.txt" \
  || fail "trace-dump of scalar values changed"

# --- diff (views engine) ----------------------------------------------------
DIFF="$("$RPRISM" diff "$WORK/old.rp" "$WORK/new.rp" --int-input 100 2>/dev/null)"
echo "$DIFF" | grep -q "semantic diff:" || fail "diff header missing"
echo "$DIFF" | grep -q "Tax-1.new(10)" || fail "diff lost the old rate"
echo "$DIFF" | grep -q "Tax-1.new(11)" || fail "diff lost the new rate"

# --- diff (lcs engine) ------------------------------------------------------
"$RPRISM" diff "$WORK/old.rp" "$WORK/new.rp" --int-input 100 --engine lcs \
  2>/dev/null | grep -q "semantic diff:" || fail "lcs diff failed"

# --- diff-traces over serialized traces -------------------------------------
"$RPRISM" run "$WORK/new.rp" --int-input 100 --trace "$WORK/new.rpt" \
  > /dev/null 2>&1
"$RPRISM" diff-traces "$WORK/old.rpt" "$WORK/new.rpt" 2>/dev/null \
  | grep -q "semantic diff:" || fail "diff-traces failed"

# The report does not depend on how the view webs are built: from the
# persisted view index or by scanning (--no-view-cache), sequentially or on
# the pool, with or without --profile. The same holds for diff-nway.
for CACHE in index --no-view-cache; do
  for JOBS in 1 4; do
    FLAGS="--jobs $JOBS"
    [ "$CACHE" = index ] || FLAGS="$FLAGS $CACHE"
    for PROFILE in plain --profile; do
      PFLAGS="$FLAGS"
      [ "$PROFILE" = plain ] || PFLAGS="$FLAGS $PROFILE"
      "$RPRISM" diff-traces "$WORK/old.rpt" "$WORK/new.rpt" $PFLAGS \
        > "$WORK/matrix.txt" 2>/dev/null || fail "diff-traces $PFLAGS failed"
      [ -f "$WORK/matrix_ref.txt" ] || cp "$WORK/matrix.txt" "$WORK/matrix_ref.txt"
      cmp -s "$WORK/matrix_ref.txt" "$WORK/matrix.txt" \
        || fail "diff-traces $PFLAGS changed the report"
    done
    "$RPRISM" diff-nway "$WORK/old.rpt" "$WORK/new.rpt" "$WORK/old.rpt" \
      $FLAGS > "$WORK/nway_matrix.txt" 2>/dev/null \
      || fail "diff-nway $FLAGS failed"
    [ -f "$WORK/nway_matrix_ref.txt" ] \
      || cp "$WORK/nway_matrix.txt" "$WORK/nway_matrix_ref.txt"
    cmp -s "$WORK/nway_matrix_ref.txt" "$WORK/nway_matrix.txt" \
      || fail "diff-nway $FLAGS changed the report"
  done
done
grep -q "semantic diff:" "$WORK/matrix_ref.txt" || fail "matrix report empty"
grep -q "variational diff:" "$WORK/nway_matrix_ref.txt" \
  || fail "diff-nway matrix report empty"

# --- diff-nway (1-vs-N variational diff) -------------------------------------
cp "$WORK/old.rpt" "$WORK/twin.rpt"
NWAY="$("$RPRISM" diff-nway "$WORK/old.rpt" "$WORK/new.rpt" "$WORK/twin.rpt" \
        2>/dev/null)"
echo "$NWAY" | grep -q "variational diff:" || fail "diff-nway header missing"
echo "$NWAY" | grep -q "1 agree" || fail "diff-nway missed the agreeing twin"
echo "$NWAY" | grep -q "cluster #0" || fail "diff-nway emitted no cluster"
echo "$NWAY" | grep -q "lanes bit-identical" \
  || fail "diff-nway twin not lane-verified"
# Needs at least one mutant.
set +e
"$RPRISM" diff-nway "$WORK/old.rpt" > /dev/null 2>&1
[ $? -eq 2 ] || fail "diff-nway with one trace was not usage exit 2"
set -e
# HTML report + nway metrics.
"$RPRISM" diff-nway "$WORK/old.rpt" "$WORK/new.rpt" "$WORK/twin.rpt" \
  --html "$WORK/nway.html" --metrics-out "$WORK/nway_metrics.json" \
  > /dev/null 2>&1
grep -q "divergence clusters" "$WORK/nway.html" || fail "html nway not written"
grep -q '"nway.mutants": 2' "$WORK/nway_metrics.json" \
  || fail "nway metrics missing mutant count"

# --- retired options ----------------------------------------------------------
# Trace loads are not retried and no fault injector is built in: each flag
# that configured one is a usage error.
set +e
for RETIRED in --retry-policy --fault-spec; do
  "$RPRISM" trace-dump "$WORK/old.rpt" $RETIRED 'seed=7' > /dev/null 2>&1
  [ $? -eq 2 ] || fail "$RETIRED was not usage exit 2"
done
# --no-view-cache only names the persisted view index, which programs run
# in memory do not have: diff and analyze refuse it.
"$RPRISM" diff "$WORK/old.rp" "$WORK/new.rp" --int-input 100 \
  --no-view-cache > /dev/null 2>&1
[ $? -eq 2 ] || fail "diff --no-view-cache was not usage exit 2"
"$RPRISM" analyze "$WORK/old.rp" "$WORK/new.rp" --regr-input u \
  --int-input 100 --ok-input u --no-view-cache > /dev/null 2>&1
[ $? -eq 2 ] || fail "analyze --no-view-cache was not usage exit 2"
set -e

# --- numeric flags ------------------------------------------------------------
# --jobs takes a whole number from 0 to 256 and --int-input a 64-bit
# integer; a malformed or out-of-range value is a usage error before any
# work starts, never truncated or saturated. (An accepted value is
# honored: --jobs 256 starts 256 workers, even on the small fixture pair.)
set +e
for JOBS in 4294967297 99999999999999999999 257 -1 4x ""; do
  "$RPRISM" diff-traces "$WORK/old.rpt" "$WORK/new.rpt" --jobs "$JOBS" \
    > /dev/null 2>&1
  [ $? -eq 2 ] || fail "--jobs '$JOBS' was not usage exit 2"
done
for N in abc 12abc 99999999999999999999 ""; do
  "$RPRISM" run "$WORK/old.rp" --int-input "$N" > /dev/null 2>&1
  [ $? -eq 2 ] || fail "--int-input '$N' was not usage exit 2"
done
set -e
"$RPRISM" diff-traces "$WORK/old.rpt" "$WORK/new.rpt" --jobs 256 \
  > "$WORK/jobs_max.txt" 2>/dev/null || fail "--jobs 256 was refused"
cmp -s "$WORK/matrix_ref.txt" "$WORK/jobs_max.txt" \
  || fail "--jobs 256 changed the report"

# --- a trace write that fails must say so ------------------------------------
# The fixture's trace fits in the stdio buffer, so only the final flush
# hits the full device: the run must still report the failure (exit 1).
if [ -w /dev/full ]; then
  set +e
  "$RPRISM" run "$WORK/old.rp" --int-input 100 --trace /dev/full \
    > /dev/null 2>"$WORK/full_err.txt"
  [ $? -eq 1 ] || fail "trace write to /dev/full was not exit 1"
  set -e
  grep -q "cannot write" "$WORK/full_err.txt" \
    || fail "trace write to /dev/full reported no error"
fi

# --- analyze ----------------------------------------------------------------
# No input-independent ok run exists for this bug (it always fires), so use
# a small input where outputs coincidentally match? They never do; analyze
# still runs and must report a candidate set.
AN="$("$RPRISM" analyze "$WORK/old.rp" "$WORK/new.rp" \
      --regr-input unused --int-input 100 --ok-input unused 2>/dev/null)"
echo "$AN" | grep -q "|A|=" || fail "analyze header missing"

# --- views ------------------------------------------------------------------
"$RPRISM" views "$WORK/old.rp" --int-input 100 2>/dev/null \
  | grep -q "target-object view Tax-1" || fail "views missing Tax view"

# --- protocols ---------------------------------------------------------------
"$RPRISM" protocols "$WORK/old.rp" "$WORK/old.rp" --int-input 100 \
  2>/dev/null | grep -q "no protocol violations" \
  || fail "self-check reported violations"

# --- version ----------------------------------------------------------------
VER="$("$RPRISM" --version)" || fail "--version exited non-zero"
echo "$VER" | grep -q "^rprism [0-9]" || fail "--version output was: $VER"
"$RPRISM" version > /dev/null || fail "version subcommand exited non-zero"

# --- error handling ----------------------------------------------------------
if "$RPRISM" run /nonexistent.rp 2>/dev/null; then
  fail "missing file did not error"
fi
if "$RPRISM" frobnicate 2>/dev/null; then
  fail "unknown subcommand did not error"
fi
set +e
"$RPRISM" frobnicate > /dev/null 2>"$WORK/err.txt"
[ $? -eq 2 ] || fail "unknown subcommand exit code was not 2"
grep -q "usage:" "$WORK/err.txt" || fail "unknown subcommand printed no usage"
# A flag that exists globally but is invalid for this subcommand.
"$RPRISM" analyze "$WORK/old.rp" "$WORK/new.rp" --input x > /dev/null 2>&1
[ $? -eq 2 ] || fail "invalid flag for subcommand was not exit 2"
"$RPRISM" run "$WORK/old.rp" --no-such-flag > /dev/null 2>&1
[ $? -eq 2 ] || fail "unknown flag was not exit 2"
# Exit 4: I/O error (trace file that does not exist).
"$RPRISM" trace-dump "$WORK/no_such.rpt" > /dev/null 2>&1
[ $? -eq 4 ] || fail "missing trace file was not exit 4"
# Exit 4 too: only a regular file is a trace file. A directory, a FIFO (the
# open does not wait for a writer), a pipe and a device are each refused
# with trace.open, under every command that reads trace files.
mkdir "$WORK/adir"
mkfifo "$WORK/fifo.rpt"
for BAD in "$WORK/adir" "$WORK/fifo.rpt" /dev/null; do
  for ARGS in "trace-dump $BAD" "diff-traces $BAD $WORK/old.rpt" \
              "diff-nway $WORK/old.rpt $BAD"; do
    timeout 20 "$RPRISM" $ARGS > /dev/null 2>"$WORK/open_err.txt"
    [ $? -eq 4 ] || fail "$ARGS was not exit 4"
    grep -qF "[trace.open]" "$WORK/open_err.txt" \
      || fail "$ARGS did not report trace.open"
  done
done
cat "$WORK/old.rpt" | "$RPRISM" trace-dump /dev/stdin \
  > /dev/null 2>"$WORK/open_err.txt"
[ $? -eq 4 ] || fail "a piped trace was not exit 4"
grep -qF "[trace.open]" "$WORK/open_err.txt" \
  || fail "a piped trace did not report trace.open"
# Standard input redirected from a trace file is that regular file.
"$RPRISM" trace-dump /dev/stdin < "$WORK/old.rpt" > "$WORK/stdin_dump.txt"
[ $? -eq 0 ] || fail "trace-dump /dev/stdin < trace was not exit 0"
"$RPRISM" trace-dump "$WORK/old.rpt" | cmp -s - "$WORK/stdin_dump.txt" \
  || fail "trace-dump /dev/stdin < trace differs from the file's dump"
# A directory as a program file is file.open (exit 4); a piped program runs.
"$RPRISM" run "$WORK/adir" > /dev/null 2>"$WORK/open_err.txt"
[ $? -eq 4 ] || fail "run of a directory was not exit 4"
grep -qF "[file.open]" "$WORK/open_err.txt" \
  || fail "run of a directory did not report file.open"
OUT="$(cat "$WORK/old.rp" | "$RPRISM" run /dev/stdin --int-input 100 \
       2>/dev/null)"
[ "$OUT" = "110
55" ] || fail "run of a piped program printed: $OUT"
# A FIFO with no writer, as a program or a metrics file, is file.open
# (exit 4) at once, as it is trace.open for the trace reader.
mkfifo "$WORK/fifo.rp"
timeout 20 "$RPRISM" run "$WORK/fifo.rp" > /dev/null 2>"$WORK/open_err.txt"
[ $? -eq 4 ] || fail "run of a FIFO with no writer was not exit 4"
grep -qF "[file.open]" "$WORK/open_err.txt" \
  || fail "run of a FIFO with no writer did not report file.open"
timeout 20 "$RPRISM" metrics-diff "$WORK/fifo.rp" "$WORK/fifo.rp" \
  > /dev/null 2>"$WORK/open_err.txt"
[ $? -eq 4 ] || fail "metrics-diff of a FIFO with no writer was not exit 4"
grep -qF "[file.open]" "$WORK/open_err.txt" \
  || fail "metrics-diff of a FIFO with no writer did not report file.open"
# A FIFO with a writer reads like a file, even when the writer has not
# written yet: this one holds the FIFO open and writes 2 s later.
( exec 3<>"$WORK/fifo.rp"; : > "$WORK/fifo_ready"; sleep 2
  cat "$WORK/old.rp" >&3 ) &
WRITER=$!
TRIES=0
while [ ! -e "$WORK/fifo_ready" ] && [ $TRIES -lt 200 ]; do
  sleep 0.05
  TRIES=$((TRIES + 1))
done
OUT="$(timeout 20 "$RPRISM" run "$WORK/fifo.rp" --int-input 100 2>/dev/null)"
[ "$OUT" = "110
55" ] || fail "run of a FIFO with a writer printed: $OUT"
wait $WRITER
# So does a process substitution (a pipe named /dev/fd/N).
OUT="$(timeout 20 bash -c '"$1" run <(cat "$2") --int-input 100' sh \
       "$RPRISM" "$WORK/old.rp" 2>/dev/null)"
[ "$OUT" = "110
55" ] || fail "run <(cat prog) printed: $OUT"
# Exit 3: corrupt input. Flip a byte in the checksum field of the first
# section record (the header is 32 bytes, and the checksum lives at record
# offset 24).
cp "$WORK/old.rpt" "$WORK/corrupt.rpt"
printf '\377' | dd of="$WORK/corrupt.rpt" bs=1 seek=56 conv=notrunc 2>/dev/null
"$RPRISM" trace-dump "$WORK/corrupt.rpt" > /dev/null 2>&1
[ $? -eq 3 ] || fail "corrupt trace was not exit 3"
# A file that is not a trace at all is also exit 3.
echo "this is not a trace" > "$WORK/garbage.rpt"
"$RPRISM" diff-traces "$WORK/garbage.rpt" "$WORK/old.rpt" > /dev/null 2>&1
[ $? -eq 3 ] || fail "garbage trace was not exit 3"
# A retired version number (bytes 4-7) is refused up front: exit 3 with the
# typed version error. Version 1 was the old stream format, version 3 the
# whole-trace layout with the FNV-1a checksums of earlier releases,
# version 5 the same layout with today's checksums, and versions 6 and 7
# the segmented layouts (trace files carry version 8).
for V in 1 3 5 6 7; do
  cp "$WORK/old.rpt" "$WORK/v$V.rpt"
  printf "\\00$V\\000\\000\\000" \
    | dd of="$WORK/v$V.rpt" bs=1 seek=4 conv=notrunc 2>/dev/null
  "$RPRISM" trace-dump "$WORK/v$V.rpt" > /dev/null 2>"$WORK/v${V}_err.txt"
  [ $? -eq 3 ] || fail "version-$V trace was not exit 3"
  grep -q "unsupported trace version ($V)" "$WORK/v${V}_err.txt" \
    || fail "version-$V trace did not report the version error"
done
# A 184-byte trace file whose header declares 0x07FFFFFF sections, so the
# table would end at 2^32 bytes (0 when computed in 32 bits), and a length
# of 2^64-8: the load must reject it without reading outside the file.
{
  head -c 8 "$WORK/old.rpt"           # magic + version
  head -c 12 /dev/zero                # header checksum, entry count
  printf '\377\377\377\007'           # 0x07FFFFFF sections
  printf '\370\377\377\377\377\377\377\377'  # declared length 2^64-8
  head -c 152 /dev/zero
} > "$WORK/hostile.rpt"
[ "$(wc -c < "$WORK/hostile.rpt")" -eq 184 ] \
  || fail "hostile fixture is not 184 bytes"
"$RPRISM" diff-traces "$WORK/hostile.rpt" "$WORK/old.rpt" > /dev/null 2>&1
[ $? -eq 3 ] || fail "hostile header was not exit 3"
set -e

# Hostile files built from old.rpt, checksums resealed unless noted:
#   tid, loc — one entry's tid, or one object's store location, set to
#     0xFFFFFFF0, and the view index damaged so diff-traces builds the view
#     web by scanning. A tid that names no thread is a corrupt section
#     (exit 3); a huge location is legal and must diff without sizing any
#     table by it (the address-space limit turns a 16 GiB key-indexed
#     vector into a failure).
#   views — the view meta declares 0xE0000000 views, the entry count the
#     real one: the read keeps every entry and drops the index without
#     reserving its view count.
#   value — one bit of the value column flipped, its checksum left as it
#     was: the copy records the same checksums as old.rpt, and every load
#     of it must fail (exit 3) whether or not old.rpt is loaded too.
#   index — one byte of the view entries flipped, its checksum left as it
#     was: every load drops the view index, says so, and builds the webs
#     by scanning, so the report is that of old.rpt.
# The limit is skipped where the binary cannot start under it (sanitizer
# builds reserve more).
cat > "$WORK/hostile_keys.py" <<'EOF'
import struct, sys

M = (1 << 64) - 1
P1, P2 = 0x9E3779B185EBCA87, 0xC2B2AE3D27D4EB4F


def mix(seed, value):
    x = seed ^ ((value + 0x9E3779B97F4A7C15 + (seed << 6) + (seed >> 2)) & M)
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & M
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & M
    return x ^ (x >> 31)


def rotl(x, r):
    return ((x << r) | (x >> (64 - r))) & M


def checksum(data):
    """checksumBytes of support/Hashing.h."""
    lanes = [(P1 + P2) & M, P2, 0, (-P1) & M]
    blocks = len(data) // 32
    for b in range(blocks):
        for j in range(4):
            word = struct.unpack_from("<Q", data, 32 * b + 8 * j)[0]
            lanes[j] = (rotl((lanes[j] + word * P2) & M, 31) * P1) & M
    h = (rotl(lanes[0], 1) + rotl(lanes[1], 7) + rotl(lanes[2], 12)
         + rotl(lanes[3], 18)) & M
    pos = 32 * blocks
    while len(data) - pos >= 8:
        h = mix(h, struct.unpack_from("<Q", data, pos)[0])
        pos += 8
    if pos < len(data):
        h = mix(h, int.from_bytes(data[pos:], "little"))
    return mix(h, len(data))


src, dst, what = sys.argv[1:]
data = bytearray(open(src, "rb").read())
sections = {}
for i in range(struct.unpack_from("<I", data, 20)[0]):
    rec = 32 + 32 * i
    sid, _, off, length, _ = struct.unpack_from("<IIQQQ", data, rec)
    sections[sid] = (rec, off, length)


def reseal(sid):
    rec, off, length = sections[sid]
    payload = bytes(data[off:off + length])
    struct.pack_into("<Q", data, rec + 24, checksum(payload))


if what == "value":
    _, off, length = sections[16]  # Value column: one bit flipped, unsealed.
    data[off + length // 2] ^= 1
elif what == "index":
    _, off, length = sections[23]  # View entries: one byte flipped, unsealed.
    data[off + length // 2] ^= 0xFF
elif what == "views":
    _, off, _ = sections[22]  # View meta: family 0 declares 0xE0000000.
    struct.pack_into("<I", data, off, 0xE0000000)
    reseal(22)
else:
    if what == "tid":
        _, off, _ = sections[10]  # Tid column: entry 0 runs on 0xFFFFFFF0.
        struct.pack_into("<I", data, off, 0xFFFFFFF0)
        reseal(10)
    else:
        _, off, _ = sections[27]  # Object rows: row 1's Loc, at +8.
        struct.pack_into("<I", data, off + 24 + 8, 0xFFFFFFF0)
        reseal(27)
    _, off, _ = sections[22]  # Damage the view index: it is dropped.
    data[off] ^= 0xFF
table_end = 32 + 32 * len(sections)
struct.pack_into("<Q", data, 8, checksum(bytes(data[16:table_end])))
open(dst, "wb").write(data)
EOF
python3 "$WORK/hostile_keys.py" "$WORK/old.rpt" "$WORK/badtid.rpt" tid \
  || fail "could not build the hostile-tid fixture"
python3 "$WORK/hostile_keys.py" "$WORK/old.rpt" "$WORK/badloc.rpt" loc \
  || fail "could not build the hostile-location fixture"
python3 "$WORK/hostile_keys.py" "$WORK/old.rpt" "$WORK/badviews.rpt" views \
  || fail "could not build the hostile-view-count fixture"
python3 "$WORK/hostile_keys.py" "$WORK/old.rpt" "$WORK/badvalue.rpt" value \
  || fail "could not build the damaged-copy fixture"
python3 "$WORK/hostile_keys.py" "$WORK/old.rpt" "$WORK/badindex.rpt" index \
  || fail "could not build the damaged-index fixture"
VMEM=4000000
( ulimit -v "$VMEM" && "$RPRISM" --version ) > /dev/null 2>&1 || VMEM=""
limited() {
  if [ -n "$VMEM" ]; then (ulimit -v "$VMEM" && "$@"); else "$@"; fi
}
set +e
for JOBS in 0 1; do
  limited "$RPRISM" diff-traces "$WORK/badtid.rpt" "$WORK/badtid.rpt" \
    --jobs "$JOBS" > /dev/null 2>"$WORK/badtid_err.txt"
  [ $? -eq 3 ] || fail "hostile tid was not exit 3 (--jobs $JOBS)"
  grep -q "corrupt tid section" "$WORK/badtid_err.txt" \
    || fail "hostile tid did not report a corrupt tid section"
  limited "$RPRISM" diff-traces "$WORK/badloc.rpt" "$WORK/badloc.rpt" \
    --jobs "$JOBS" > "$WORK/badloc_out.txt" 2>/dev/null
  [ $? -eq 0 ] || fail "hostile location did not diff (--jobs $JOBS)"
  grep -q "semantic diff: 0 differences" "$WORK/badloc_out.txt" \
    || fail "hostile location diff is not empty (--jobs $JOBS)"
done
limited "$RPRISM" trace-dump "$WORK/badviews.rpt" \
  --metrics-out "$WORK/badviews_metrics.json" \
  > "$WORK/badviews_dump.txt" 2>"$WORK/badviews_err.txt"
[ $? -eq 0 ] || fail "hostile view count did not load"
grep -q "damaged view index dropped" "$WORK/badviews_err.txt" \
  || fail "hostile view count did not drop the view index"
python3 -c "import json,sys; sys.exit(json.load(open(sys.argv[1]))['counters'].get('robust.view_index_dropped') != 1)" \
  "$WORK/badviews_metrics.json" \
  || fail "hostile view count did not count robust.view_index_dropped once"
"$RPRISM" trace-dump "$WORK/old.rpt" > "$WORK/old_dump.txt" 2>/dev/null
cmp -s "$WORK/old_dump.txt" "$WORK/badviews_dump.txt" \
  || fail "hostile view count did not load every entry of old.rpt"
"$RPRISM" diff-traces "$WORK/old.rpt" "$WORK/badvalue.rpt" > /dev/null \
  2>"$WORK/badvalue_err.txt"
[ $? -eq 3 ] || fail "damaged copy after its twin was not exit 3"
grep -q "fails its checksum" "$WORK/badvalue_err.txt" \
  || fail "damaged copy did not report the section checksum"
"$RPRISM" diff-traces "$WORK/badvalue.rpt" "$WORK/old.rpt" > /dev/null 2>&1
[ $? -eq 3 ] || fail "damaged copy before its twin was not exit 3"
"$RPRISM" diff-nway "$WORK/old.rpt" "$WORK/badvalue.rpt" > /dev/null 2>&1
[ $? -eq 3 ] || fail "damaged copy as a diff-nway mutant was not exit 3"
set -e
for CMD in diff-traces diff-nway; do
  "$RPRISM" $CMD "$WORK/old.rpt" "$WORK/new.rpt" > "$WORK/intact_out.txt" \
    2>/dev/null || fail "$CMD on the intact pair failed"
  "$RPRISM" $CMD "$WORK/badindex.rpt" "$WORK/new.rpt" \
    > "$WORK/badindex_out.txt" 2>"$WORK/badindex_err.txt" \
    || fail "$CMD with a damaged view index failed"
  grep -qF "[$WORK/badindex.rpt: damaged view index dropped]" \
    "$WORK/badindex_err.txt" \
    || fail "$CMD dropped the damaged view index without a note"
  cmp -s "$WORK/intact_out.txt" "$WORK/badindex_out.txt" \
    || fail "$CMD with a damaged view index changed the report"
done

# --- truncation and derived sections -----------------------------------------
# Cut the trace from 95% down to 50% of its size. A cut that takes only
# derived sections (the fingerprint lane, then the view index) loads, with
# the lane recomputed, noted and counted; every other cut is
# trace.truncated (exit 3).
SIZE="$(wc -c < "$WORK/old.rpt")"
REBUILT=""
set +e
for PCT in 95 90 85 80 75 70 65 60 55 50; do
  head -c $((SIZE * PCT / 100)) "$WORK/old.rpt" > "$WORK/cut.rpt"
  "$RPRISM" trace-dump "$WORK/cut.rpt" --metrics-out "$WORK/cut_metrics.json" \
    > /dev/null 2>"$WORK/cut_err.txt"
  RC=$?
  if [ $RC -ne 0 ]; then
    [ $RC -eq 3 ] || fail "cut at $PCT% was not exit 3"
    grep -qF "[trace.truncated]" "$WORK/cut_err.txt" \
      || fail "cut at $PCT% was not trace.truncated"
  elif grep -qF "[$WORK/cut.rpt: damaged fingerprint lane recomputed]" \
         "$WORK/cut_err.txt"; then
    python3 -c "import json,sys; sys.exit(json.load(open(sys.argv[1]))['counters'].get('load.fp_recompute', 0) < 1)" \
      "$WORK/cut_metrics.json" \
      || fail "cut at $PCT% rebuilt the lane without counting load.fp_recompute"
    REBUILT=yes
  fi
done
[ -n "$REBUILT" ] || fail "no cut loaded with the fingerprint lane rebuilt"
# A damaged header is refused under every command, even a flipped entry
# count that leaves every section intact.
cp "$WORK/old.rpt" "$WORK/badcount.rpt"
python3 -c "import sys; p=sys.argv[1]; b=bytearray(open(p,'rb').read()); b[16]^=0x40; open(p,'wb').write(b)" \
  "$WORK/badcount.rpt"
"$RPRISM" trace-dump "$WORK/badcount.rpt" > /dev/null 2>"$WORK/badcount_err.txt"
[ $? -eq 3 ] || fail "trace-dump of a flipped entry count was not exit 3"
grep -q "corrupt header section" "$WORK/badcount_err.txt" \
  || fail "a flipped entry count did not report the header"
for CMD in diff-traces diff-nway; do
  "$RPRISM" $CMD "$WORK/old.rpt" "$WORK/badcount.rpt" > /dev/null 2>&1
  [ $? -eq 3 ] || fail "$CMD with a flipped entry count was not exit 3"
done
# The retired prefix-recovery flag is unknown now: exit 2 on each
# subcommand that took it.
RETIRED=--salvage
"$RPRISM" trace-dump "$WORK/old.rpt" $RETIRED > /dev/null 2>&1
[ $? -eq 2 ] || fail "trace-dump $RETIRED was not exit 2"
for CMD in diff-traces diff-nway; do
  "$RPRISM" $CMD "$WORK/old.rpt" "$WORK/new.rpt" $RETIRED > /dev/null 2>&1
  [ $? -eq 2 ] || fail "$CMD $RETIRED was not exit 2"
done
set -e

# --- telemetry: --metrics-out + --profile ------------------------------------
METRICS="$WORK/metrics.json"
DIFF_OUT="$("$RPRISM" diff "$WORK/old.rp" "$WORK/new.rp" --int-input 100 \
            --jobs 4 --metrics-out "$METRICS" --profile 2>"$WORK/prof.txt")"
[ -f "$METRICS" ] || fail "--metrics-out wrote no file"
python3 -m json.tool "$METRICS" > /dev/null || fail "metrics JSON does not parse"
grep -q '"schema": "rprism-metrics-v1"' "$METRICS" || fail "metrics schema tag missing"
# The stage span taxonomy covers the pipeline.
for STAGE in parse compile vm-run record web-build correlate evaluate report; do
  grep -q "$STAGE" "$METRICS" || fail "metrics JSON missing stage '$STAGE'"
done
grep -q "stages (top" "$WORK/prof.txt" || fail "--profile table missing"
# The compare-op counter must equal the value the report printed (the
# "[N compare ops, ...]" status line goes to stderr with the profile).
REPORT_OPS="$(sed -n 's/^\[\([0-9][0-9]*\) compare ops.*/\1/p' "$WORK/prof.txt" | head -1)"
JSON_OPS="$(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['counters']['diff.compare_ops'])" "$METRICS")"
[ -n "$REPORT_OPS" ] || fail "report printed no compare-op count"
[ "$REPORT_OPS" = "$JSON_OPS" ] || \
  fail "compare ops mismatch: report=$REPORT_OPS metrics=$JSON_OPS"
# --metrics-out must be valid (and produce the schema) for every subcommand.
"$RPRISM" run "$WORK/old.rp" --int-input 100 \
  --metrics-out "$WORK/run_metrics.json" > /dev/null 2>&1 \
  || fail "run --metrics-out failed"
python3 -m json.tool "$WORK/run_metrics.json" > /dev/null \
  || fail "run metrics JSON does not parse"
# Every subcommand reports the process's minor faults and peak RSS. Their
# values depend on the kernel, so only their presence is checked.
for F in "$METRICS" "$WORK/run_metrics.json"; do
  python3 -c "import json,sys; g=json.load(open(sys.argv[1]))['gauges']; \
assert g['proc.minor_faults'] > 0 and g['proc.peak_rss_bytes'] > 0" "$F" \
    || fail "$F lacks the proc.* gauges"
done
for GAUGE in proc.minor_faults proc.peak_rss_bytes; do
  grep -q "$GAUGE" "$WORK/prof.txt" || fail "--profile table lacks $GAUGE"
done
# Exported for CI artifact collection when requested.
if [ -n "${RPRISM_METRICS_DIR:-}" ]; then
  mkdir -p "$RPRISM_METRICS_DIR"
  cp "$METRICS" "$RPRISM_METRICS_DIR/cli_diff_metrics.json"
fi

# --- timeline tracing: --trace-out -------------------------------------------
TRACE_JSON="$WORK/timeline.json"
BASE_OUT="$("$RPRISM" diff-traces "$WORK/old.rpt" "$WORK/new.rpt" --jobs 4 \
            2>/dev/null)"
TRACED_OUT="$("$RPRISM" diff-traces "$WORK/old.rpt" "$WORK/new.rpt" --jobs 4 \
              --trace-out "$TRACE_JSON" 2>"$WORK/trace_err.txt")"
# Tracing is observability only: the report must be byte-identical.
[ "$BASE_OUT" = "$TRACED_OUT" ] || fail "--trace-out changed the report output"
[ -f "$TRACE_JSON" ] || fail "--trace-out wrote no file"
grep -q "timeline written to" "$WORK/trace_err.txt" \
  || fail "--trace-out printed no confirmation"
python3 -m json.tool "$TRACE_JSON" > /dev/null \
  || fail "timeline JSON does not parse"
# Chrome trace-event structure: traceEvents array whose events carry
# ph/pid/tid (and ts on non-metadata events).
python3 - "$TRACE_JSON" <<'EOF' || fail "timeline structure invalid"
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert isinstance(events, list) and events, "traceEvents missing/empty"
for e in events:
    assert "ph" in e and "pid" in e and "tid" in e, e
    if e["ph"] != "M":
        assert "ts" in e and e["ts"] >= 0, e
phases = {e["ph"] for e in events}
assert {"M", "B", "E"} <= phases, phases
names = {e["args"]["name"] for e in events
         if e["ph"] == "M" and e.get("name") == "thread_name"}
assert "main" in names, names
assert doc["otherData"]["dropped_events"] == 0, doc["otherData"]
EOF
# --trace-out works with --metrics-out off and on any subcommand.
"$RPRISM" run "$WORK/old.rp" --int-input 100 --trace-out "$WORK/run_tl.json" \
  > /dev/null 2>&1 || fail "run --trace-out failed"
python3 -m json.tool "$WORK/run_tl.json" > /dev/null \
  || fail "run timeline JSON does not parse"
# Unwritable destination is an I/O error (exit 4).
set +e
"$RPRISM" run "$WORK/old.rp" --int-input 100 \
  --trace-out "$WORK/no_such_dir/t.json" > /dev/null 2>&1
[ $? -eq 4 ] || fail "unwritable --trace-out was not exit 4"
set -e

# --- metrics-diff: perf-regression gate ---------------------------------------
# Identical documents pass (exit 0, quiet gate).
"$RPRISM" metrics-diff "$METRICS" "$METRICS" > /dev/null 2>&1 \
  || fail "metrics-diff on identical documents failed"
# Inflate one deterministic counter: the gate must trip with exit 5.
python3 - "$METRICS" "$WORK/inflated.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["counters"]["diff.compare_ops"] = int(doc["counters"]["diff.compare_ops"] * 2) + 1
json.dump(doc, open(sys.argv[2], "w"))
EOF
set +e
"$RPRISM" metrics-diff "$METRICS" "$WORK/inflated.json" \
  > /dev/null 2>"$WORK/md_err.txt"
[ $? -eq 5 ] || fail "metrics-diff regression was not exit 5"
grep -q "REGRESSED" "$WORK/md_err.txt" || fail "metrics-diff verdict missing"
# A generous tolerance band absorbs the same delta.
"$RPRISM" metrics-diff "$METRICS" "$WORK/inflated.json" \
  --tolerance 'diff.compare_ops=500' > /dev/null 2>&1
[ $? -eq 0 ] || fail "metrics-diff tolerance band did not absorb the delta"
# An improvement passes one-sided but trips --two-sided.
"$RPRISM" metrics-diff "$WORK/inflated.json" "$METRICS" > /dev/null 2>&1
[ $? -eq 0 ] || fail "metrics-diff flagged an improvement"
"$RPRISM" metrics-diff "$WORK/inflated.json" "$METRICS" --two-sided \
  > /dev/null 2>&1
[ $? -eq 5 ] || fail "metrics-diff --two-sided missed the decrease"
# Error taxonomy: missing file 4, garbage JSON 3, bad usage 2.
"$RPRISM" metrics-diff "$WORK/absent.json" "$METRICS" > /dev/null 2>&1
[ $? -eq 4 ] || fail "metrics-diff missing file was not exit 4"
"$RPRISM" metrics-diff "$WORK/adir" "$METRICS" > /dev/null 2>"$WORK/md_err.txt"
[ $? -eq 4 ] || fail "metrics-diff of a directory was not exit 4"
grep -qF "[file.open]" "$WORK/md_err.txt" \
  || fail "metrics-diff of a directory did not report file.open"
echo "not json" > "$WORK/garbage.json"
"$RPRISM" metrics-diff "$WORK/garbage.json" "$METRICS" > /dev/null 2>&1
[ $? -eq 3 ] || fail "metrics-diff garbage JSON was not exit 3"
"$RPRISM" metrics-diff "$METRICS" > /dev/null 2>&1
[ $? -eq 2 ] || fail "metrics-diff with one file was not usage exit 2"
"$RPRISM" metrics-diff "$METRICS" "$METRICS" --tolerance 'nopct' \
  > /dev/null 2>&1
[ $? -eq 2 ] || fail "metrics-diff malformed --tolerance was not exit 2"
set -e

# --- telemetry in html report -------------------------------------------------
"$RPRISM" diff "$WORK/old.rp" "$WORK/new.rp" --int-input 100 \
  --metrics-out "$WORK/m2.json" --html "$WORK/tele.html" > /dev/null 2>&1
grep -q "Run telemetry" "$WORK/tele.html" \
  || fail "html diff missing telemetry section"

# --- html reports ------------------------------------------------------------
"$RPRISM" diff "$WORK/old.rp" "$WORK/new.rp" --int-input 100 \
  --html "$WORK/diff.html" > /dev/null 2>&1
grep -q "<html>" "$WORK/diff.html" || fail "html diff not written"
grep -q "semantic differences" "$WORK/diff.html" || fail "html diff empty"
"$RPRISM" analyze "$WORK/old.rp" "$WORK/new.rp" \
  --regr-input u --int-input 100 --ok-input u \
  --html "$WORK/analysis.html" > /dev/null 2>&1
grep -q "regression analysis" "$WORK/analysis.html" \
  || fail "html analysis not written"

echo "cli_test: all checks passed"
