#!/usr/bin/env bash
# The per-PR gate: tier-1 verify (ROADMAP.md), the crates' own unit tests,
# a warnings-as-errors build,
# a guard against the deleted second executor and first benchmark coming
# back, doodlint over every built-in rule program (text and --json modes),
# a DOOD_TRACE=1 smoke run validated by `doodprof --validate`, the
# hermeticity check, smoke runs of the three gates `benchmark/` cannot state
# (e15 observability, e19 analysis throughput, e20 flight recorder), and
# the end-to-end benchmark's own tests, a smoke run of each of its
# workloads with their pass-0 oracles, and allocation ceilings (counts and
# KB) read from short traced runs.
#
# Usage: scripts/ci.sh
# Run from anywhere; operates on the workspace containing this script.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== ci: tier-1 verify (cargo build --release && cargo test -q) =="
cargo build --release
cargo test -q

echo "== ci: the crates' unit tests (cargo test --workspace) =="
# Tier-1's `cargo test -q` runs the root package only (tests/*.rs); the
# unit tests inside crates/* — the row store and row run models, the
# posting lists, the dump loader — run here. The root package ran above.
cargo test --workspace --exclude dood -q

echo "== ci: maintenance propchecks at 200 cases =="
# Incremental and closure maintenance against from-scratch derivation, the
# spec interpreter and the audit after every step, at twenty times the
# default case count (ROADMAP item 6's gate).
DOOD_PROP_CASES=200 cargo test -q --test incremental --test closure_plan

echo "== ci: warnings-as-errors build =="
RUSTFLAGS="-D warnings" cargo build --workspace

echo "== ci: one sequential executor, one measuring stick, plans from counts =="
# The AST-walking evaluator, its mode switches, the committed bench
# snapshot, the chunking thread pool, and the planner's statistics loop
# (static priors, drift watchdog, re-plan path) are gone; the reference is
# tests/common/spec_eval.rs. So are the closure kernel's frontier rounds and
# the planner's round and reach estimates: one expansion of the roots is
# the whole successor relation. So are the batch seed of a rule cache, its
# deferred aggregate groups and the unused store transaction: a seed is the
# delta step from empty. So are derivation counts and rejected rows keyed by
# boxed patterns and the head range over them: both are row stores. So are
# a closure's re-seed on a change of width, its target diff and counter: a
# width change re-shapes the cached rows in place. So is the comparison of
# span rows as the patterns they widen to: span rows are full-width. So is
# the hash-mapped slot-pair adjacency: extents and pairs are counted row
# stores. So is the membership swap of a delta join: the restricted slot
# anchors the join, and the dirty oids that can bind it are its candidates.
# So is a table's flat run of cells: rows are codes into per-column values.
# So are a union's per-rule targets: a rule's target is the visible marks on
# its derivation counts, and the registered union is the one copy.
# The names are spelled in two halves so this file passes its own check.
SOURCES="crates src tests scripts examples"
GONE="Exec""Mode|Planner""Mode|DOOD_""EXEC|DOOD_""PLANNER|BENCH_""SEED"
GONE="$GONE|Chunk""Pool|DOOD_""THREADS|span_""under|par_""chunk_map"
GONE="$GONE|Drift""Mark|drift_""band|DOOD_""DRIFT_BAND|install_""priors|get_or_""prior|needs_""replan"
GONE="$GONE|oql\.closure\.""round|oql\.closure\.""frontier|est_""rounds|est_""reach"
GONE="$GONE|Groups::""Seeded|build_""groups|wherec::""Applied|Filter::""derive|store::""txn"
GONE="$GONE|Head""Range|BTreeMap<Ext""Pattern|FxHashSet<Ext""Pattern"
GONE="$GONE|target""_diff|closure""_recompute|widened""_cmp|Slot""Adj|Members::""Fixed"
GONE="$GONE|Rows::""from_cells|union""_targets"
if grep -rnE "$GONE" $SOURCES; then
    echo "ci: a deleted name is back (see above)" >&2
    exit 1
fi
# A set of OIDs on the engine path is one shape, a sorted, distinct
# `Vec<Oid>` read as `&[Oid]`: no B-tree of OIDs, and no copy-on-write one,
# in the engine crates. `tests/` keeps B-trees as models, so it is not
# scanned.
OID_TREE="BTreeSet""<Oid>|Cow<""BTreeSet"
if grep -rnE "$OID_TREE" crates/core/src crates/oql/src crates/rules/src; then
    echo "ci: a B-tree set of OIDs is back in the engine (see above)" >&2
    exit 1
fi
# Every switch is a configuration to test: the count only goes down.
MAX_SWITCHES=14
SWITCHES="$(grep -rhoE 'DOOD_[A-Z0-9_]+' $SOURCES | sort -u)"
if [ "$(wc -l <<<"$SWITCHES")" -gt "$MAX_SWITCHES" ]; then
    echo "ci: more than $MAX_SWITCHES distinct DOOD_* names:" >&2
    echo "$SWITCHES" >&2
    exit 1
fi
# README's switch table lists exactly the names the sources read.
DOCUMENTED="$(grep -E '^\| `DOOD_' README.md | grep -oE 'DOOD_[A-Z0-9_]+' | sort -u)"
if [ "$DOCUMENTED" != "$SWITCHES" ]; then
    echo "ci: README's switch table and the sources disagree on DOOD_* names:" >&2
    diff <(echo "$DOCUMENTED") <(echo "$SWITCHES") >&2 || true
    exit 1
fi

echo "== ci: doodlint over the built-in rule programs =="
cargo run -q --release --bin doodlint -- --strict --builtin
if compgen -G "programs/*.dood" > /dev/null; then
    cargo run -q --release --bin doodlint -- --strict programs/*.dood
fi
# --json mode must emit nothing on stdout for clean programs (machine
# consumers parse every stdout line as a diagnostic object).
JSON_OUT="$(cargo run -q --release --bin doodlint -- --json --builtin 2>/dev/null)"
if [ -n "$JSON_OUT" ]; then
    echo "ci: doodlint --json emitted diagnostics for clean programs:" >&2
    echo "$JSON_OUT" >&2
    exit 1
fi

echo "== ci: diagnostic coverage (every emitted code has a golden) =="
# Every diagnostic code the analyzer or abstract interpreter can emit
# (and every code documented in the `rules::analyze` code table) must
# appear in the tests/analyzer.rs goldens — new codes land with tests.
MISSING=""
for code in $(grep -ohE '"[EWP][0-9]{3}"' crates/rules/src/analyze.rs crates/rules/src/absint.rs | tr -d '"' | sort -u); do
    grep -q "\"$code\"" tests/analyzer.rs || MISSING="$MISSING $code"
done
if [ -n "$MISSING" ]; then
    echo "ci: diagnostic codes without goldens in tests/analyzer.rs:$MISSING" >&2
    exit 1
fi
# The --explain/--allow surfaces stay wired to the code table.
cargo run -q --release --bin doodlint -- --explain E017 > /dev/null
cargo run -q --release --bin doodlint -- --strict --allow W108 --builtin > /dev/null

echo "== ci: trace smoke (DOOD_TRACE=1 -> validate -> doodprof) =="
TRACE_TMP="$(mktemp -d)"
trap 'rm -rf "$TRACE_TMP"' EXIT
DOOD_TRACE=1 DOOD_TRACE_FILE="$TRACE_TMP/trace.jsonl" \
    cargo run -q --release --bin doodprof -- --builtin university > "$TRACE_TMP/profile.txt"
grep -q "== export Teacher_course ==  rows=11" "$TRACE_TMP/profile.txt"
# A closure is one expansion of its roots, and --plan says so in one line.
cargo run -q --release --bin doodprof -- --builtin university --plan > "$TRACE_TMP/plan.txt"
CLOSURE_LINE="$(grep "^-- closure export Grad_teaching_grad " "$TRACE_TMP/plan.txt")"
if [[ "$CLOSURE_LINE" != *"roots="*"steps="* || "$CLOSURE_LINE" == *rounds* ]]; then
    echo "ci: doodprof --plan closure line is not roots= steps=: $CLOSURE_LINE" >&2
    exit 1
fi
cargo run -q --release --bin doodprof -- --validate "$TRACE_TMP/trace.jsonl"
cargo run -q --release --bin doodprof -- --metrics programs/university.dood > /dev/null

echo "== ci: flight-recorder + slowlog smoke (doodprof --flight / --slowlog) =="
# The flight ring's merged dump must pass flight-tolerant validation (a
# bounded ring legally truncates forests), and a DOOD_SLOWLOG_US=0 run
# must produce a slow-query log that round-trips through the renderer.
cargo run -q --release --bin doodprof -- --builtin university --flight \
    > "$TRACE_TMP/flight.txt"
grep -q "flight: .* span(s) in ring" "$TRACE_TMP/flight.txt"
grep '^{' "$TRACE_TMP/flight.txt" > "$TRACE_TMP/flight.jsonl"
cargo run -q --release --bin doodprof -- --validate "$TRACE_TMP/flight.jsonl" --flight
DOOD_SLOWLOG_US=0 DOOD_SLOWLOG_FILE="$TRACE_TMP/slow.jsonl" \
    cargo run -q --release --bin doodprof -- --builtin university > /dev/null
test -s "$TRACE_TMP/slow.jsonl"
cargo run -q --release --bin doodprof -- --slowlog "$TRACE_TMP/slow.jsonl" \
    | grep -q "slow record(s)"

echo "== ci: hermeticity =="
scripts/check_hermetic.sh

echo "== ci: observability smoke (bench e15_obs) =="
# Smoke mode exercises the instrumented paths under span capture and with
# the metrics registry on (timings meaningless, so the paired overhead
# verdict self-skips).
DOOD_BENCH_SMOKE=1 cargo bench -p dood-bench --bench e15_obs

echo "== ci: abstract-interpretation smoke (bench e19_absint) =="
# Smoke mode exercises `analyze_bounds` over the builtin corpus and the
# synthetic rule chains (the throughput verdict self-skips). Set
# DOOD_E19_FULL=1 to also run the timed bench with the per-rule throughput
# gate enforced (DOOD_BENCH_STRICT=1).
DOOD_BENCH_SMOKE=1 cargo bench -p dood-bench --bench e19_absint
if [ "${DOOD_E19_FULL:-0}" = "1" ]; then
    echo "== ci: e19 absint throughput gate (DOOD_BENCH_STRICT=1) =="
    DOOD_BENCH_STRICT=1 cargo bench -p dood-bench --bench e19_absint
fi

echo "== ci: recorder-overhead smoke (bench e20_recorder) =="
# Smoke mode exercises the always-on flight-recorder path and the
# accounting fast path (timings meaningless, so the overhead verdict
# self-skips). Set DOOD_E20_FULL=1 to also run the timed bench with the
# <2% recorder-overhead gate enforced (DOOD_BENCH_STRICT=1).
DOOD_BENCH_SMOKE=1 cargo bench -p dood-bench --bench e20_recorder
if [ "${DOOD_E20_FULL:-0}" = "1" ]; then
    echo "== ci: e20 recorder-overhead gate (DOOD_BENCH_STRICT=1) =="
    DOOD_BENCH_STRICT=1 cargo bench -p dood-bench --bench e20_recorder
fi

echo "== ci: end-to-end benchmark smoke (benchmark/, all four workloads) =="
# Smoke mode runs 16 ops for 1 + 1 passes on a tiny database (timings
# meaningless) with every pass-0 oracle on: traced = untraced path,
# maintained = derive_fresh, Datalog cross-checks, one digest in every pass.
# The last line of a run is its JSON summary.
(cd benchmark && cargo test --offline -q)
for w in univ_query univ_update social_closure cold_pipeline; do
    SUMMARY="$(bash benchmark/run.sh --workload "$w" --smoke | tail -n 1)"
    if [[ "$SUMMARY" != *'"correct": true'* || "$SUMMARY" != *'"failed": 0,'* ]]; then
        echo "ci: benchmark smoke failed on $w: ${SUMMARY:0:200}" >&2
        exit 1
    fi
done
# Forward maintenance must stay O(|delta|), and so must the catch-up of a
# stale post-evaluated result: allocations per store event in
# `rules.propagate` and per op in `rules.derive`, from one short traced run
# at full size (the smoke run's reads never find a stale result), and per
# store event in `rules.propagate` on the closure workload. Allocation
# counts repeat to 0.1 %, so each ceiling is a measured value plus 25 %,
# rounded up:
# - `univ_update` `rules.propagate`: 10.7 per event once dirty sets were
#   sorted runs and a delta join anchored at its restricted slot without
#   swapping its membership (11.7 once index extents, pairs and closure
#   successors were counted row stores; 11.9 with hash maps and a vector
#   per key; 12.1 once derivation counts were counted
#   row stores; 12.8 with a boxed key per count; 46.7 with a box per row;
#   80.7 when the delta step landed, 353.0 before it);
# - `univ_update` `rules.derive`: 17.0 per op once a catch-up's dirty set was
#   a sorted run sized from its events (24.0 once index extents and pairs were
#   counted row stores; 24.2 with hash maps; 25.4 once rule caches were boxed;
#   25.7 with a cache in every engine slot; 30.6 with a boxed key per count;
#   71.8 with a box per row; 83.7 with a box per target pattern; 353.7 when
#   reads re-seeded);
# - `social_closure` `rules.propagate`: 17.6 per event once a rule's target
#   was the visible marks on its derivation counts (18.7 once dirty sets were
#   sorted runs and a closure step stopped recomputing the lists of the roots
#   it drops; 20.5 once closure successors were row stores walked through
#   buffers the cache keeps; 23.7 with a hash map and a vector per node, once
#   a closure's change of width re-shaped its caches in place and a commit
#   gathered its oids into one vector; 25.9 with a re-seed per change of width
#   and a B-tree per commit; 31.7 with a boxed key per count; 33.2 while
#   closure maintenance cloned each recomputed successor list; 107.4 with a
#   `Vec` per chain and a box per row).
PROPAGATE_ALLOCS_PER_EVENT_MAX=14
DERIVE_ALLOCS_PER_OP_MAX=22
CLOSURE_PROPAGATE_ALLOCS_PER_EVENT_MAX=22
# KB allocated per op repeats as exactly as the counts do, so the layers
# that move rows have KB ceilings too, again a measured value plus 25 %:
# - `univ_update` `rules.propagate`: 23.5 KB once dirty sets were sorted
#   runs (24.6 KB with B-trees of oids, once index extents and pairs were
#   counted row stores; 33.4 KB once rule caches were boxed and a commit
#   gathered its oids into one vector; 35.3 KB with a cache
#   in every slot of a step's state; 41.2 KB with a boxed key per count;
#   51.5 KB with 16-byte `Option<Oid>` cells);
# - `social_closure` `rules.propagate`: 43.0 KB once dirty sets were
#   sorted runs (43.1 KB once closure successors were row stores; 44.1 KB
#   with a hash map and a vector per node, once a closure's change of
#   width re-shaped its caches in place; 55.8 KB with a re-seed and a
#   target diff per change of width; 56.7 KB with a boxed key per count;
#   94.1 KB with 16-byte cells);
# - `univ_query` `oql.eval` (below): 60.3 KB once span joins wrote their
#   rows into blocks that become the extension's leaves (149.6 KB with a
#   run per span that grew by doubling and was then copied into leaves;
#   161.7 KB with an index sort per span and 8-byte cells; 207.3 KB with
#   16-byte cells);
# - `univ_query` `oql.table` (below): 79.6 KB once rows stayed codes into
#   per-column values and dictionaries were copied out at their exact size
#   (103.5 KB with a `Value` per cell once a table rendered into one buffer
#   of its final size and slot 0's dictionary was sized by its distinct
#   heads; 142.5 KB with a renderer writing into a `String` that grew by
#   doubling). The benchmark's traced path renders through `Display`, one
#   more copy of the text. It reads 82.2 KB since each slot's dictionary
#   sort also codes the slot's changes, a `u32` per change, so the ceiling
#   stays;
# - `univ_query` `oql.where` (below): 11.1 KB once an aggregate gathered
#   its runs' targets as 8-byte OIDs (16.2 KB with a 16-byte
#   `(group, target)` pair per pattern).
PROPAGATE_KB_PER_OP_MAX=30
CLOSURE_PROPAGATE_KB_PER_OP_MAX=54
EVAL_KB_PER_OP_MAX=76
TABLE_KB_PER_OP_MAX=100
WHERE_KB_PER_OP_MAX=14
metric() {
    sed -n "s/.*\"$1\": {\"value\": \([0-9.e+-]*\).*/\1/p" <<<"$SUMMARY"
}
# $1 (a metric of $SUMMARY) against the ceiling $2 on workload $3.
kb_ceiling() {
    local kb
    kb="$(metric "$1")"
    if ! awk -v a="$kb" -v max="$2" -v m="$1" -v w="$3" \
        'BEGIN { if (a == "") exit 1
                 printf "ci: %s is %.1f KB on %s (ceiling %d)\n", m, a, w, max
                 exit (a > max) }'; then
        echo "ci: $1 on $3 ($kb KB) exceeds $2 KB or is missing" >&2
        exit 1
    fi
}
# The allocations of `rules.propagate` per store event in $SUMMARY, against
# a ceiling; $1 names the workload.
propagate_per_event() {
    local allocs events
    allocs="$(metric rules.propagate.allocs_per_op)"
    events="$(metric rules.propagate.events_per_op)"
    if ! awk -v a="$allocs" -v e="$events" -v max="$2" -v w="$1" \
        'BEGIN { if (a == "" || e == "" || e + 0 == 0) exit 1
                 printf "ci: rules.propagate allocates %.1f per store event on %s (ceiling %d)\n", a / e, w, max
                 exit (a / e > max) }'; then
        echo "ci: rules.propagate allocations per event on $1 ($allocs / $events) exceed $2 or are missing" >&2
        exit 1
    fi
}
SUMMARY="$(bash benchmark/run.sh --workload univ_update --seed 7 --seconds 2 --trace 1 | tail -n 1)"
propagate_per_event univ_update "$PROPAGATE_ALLOCS_PER_EVENT_MAX"
kb_ceiling rules.propagate.alloc_kb_per_op "$PROPAGATE_KB_PER_OP_MAX" univ_update
DERIVE="$(metric rules.derive.allocs_per_op)"
if ! awk -v a="$DERIVE" -v max="$DERIVE_ALLOCS_PER_OP_MAX" \
    'BEGIN { if (a == "") exit 1
             printf "ci: rules.derive allocates %.1f per op (ceiling %d)\n", a, max
             exit (a > max) }'; then
    echo "ci: rules.derive allocations per op ($DERIVE) exceed" \
        "$DERIVE_ALLOCS_PER_OP_MAX or are missing" >&2
    exit 1
fi
SUMMARY="$(bash benchmark/run.sh --workload social_closure --seed 7 --seconds 2 --trace 1 | tail -n 1)"
propagate_per_event social_closure "$CLOSURE_PROPAGATE_ALLOCS_PER_EVENT_MAX"
kb_ceiling rules.propagate.alloc_kb_per_op "$CLOSURE_PROPAGATE_KB_PER_OP_MAX" social_closure
# A joined row is written straight into its extension's flat leaves, and
# a table row is a code per column: allocations per
# output pattern in `oql.eval` and per op in `oql.table` on the read mix,
# each ceiling again a measured value plus 25 %.
# - `oql.eval`: 0.035 per pattern once span joins wrote their rows as
#   runs sorted in place and one-span contexts skipped subsumption (0.039
#   once a subdatabase stored its rows in sorted flat leaves; 1.18 with a
#   box per pattern and a B-tree; 2.43 when each span row was a Vec<Oid>
#   and then a second vector of slots).
# - `oql.table`: 36.8 per op once the key pass kept its cursors in the
#   dictionaries (37.6 once rows were codes, every column's ranks
#   shared one sort buffer and one run of ranks, and `display` measured
#   each distinct value once; 39.1 once a table rendered into one buffer
#   of its final size; 52.9 once table rows were one flat buffer; 558.3
#   with a Vec<Value> per row).
# - `oql.where`: 1.5 per op once an aggregate grouped its input by runs
#   (1.3 with one sort of `(group, target)` pairs).
EVAL_ALLOCS_PER_PATTERN_MAX=0.044
TABLE_ALLOCS_PER_OP_MAX=46.1
WHERE_ALLOCS_PER_OP_MAX=1.9
SUMMARY="$(bash benchmark/run.sh --workload univ_query --seed 7 --seconds 2 --trace 1 | tail -n 1)"
kb_ceiling oql.eval.alloc_kb_per_op "$EVAL_KB_PER_OP_MAX" univ_query
kb_ceiling oql.table.alloc_kb_per_op "$TABLE_KB_PER_OP_MAX" univ_query
kb_ceiling oql.where.alloc_kb_per_op "$WHERE_KB_PER_OP_MAX" univ_query
ALLOCS="$(metric oql.eval.allocs_per_op)"
PATTERNS="$(metric oql.eval.patterns_per_op)"
if ! awk -v a="$ALLOCS" -v p="$PATTERNS" -v max="$EVAL_ALLOCS_PER_PATTERN_MAX" \
    'BEGIN { if (a == "" || p == "" || p + 0 == 0) exit 1
             printf "ci: oql.eval allocates %.3f per output pattern (ceiling %.3f)\n", a / p, max
             exit (a / p > max) }'; then
    echo "ci: oql.eval allocations per pattern ($ALLOCS / $PATTERNS) exceed" \
        "$EVAL_ALLOCS_PER_PATTERN_MAX or are missing" >&2
    exit 1
fi
for ceiling in oql.table:$TABLE_ALLOCS_PER_OP_MAX oql.where:$WHERE_ALLOCS_PER_OP_MAX; do
    STAGE="${ceiling%%:*}"
    MAX="${ceiling##*:}"
    ALLOCS="$(metric "$STAGE.allocs_per_op")"
    if ! awk -v a="$ALLOCS" -v max="$MAX" -v s="$STAGE" \
        'BEGIN { if (a == "") exit 1
                 printf "ci: %s allocates %.2f per univ_query op (ceiling %.1f)\n", s, a, max
                 exit (a > max) }'; then
        echo "ci: $STAGE allocations per univ_query op ($ALLOCS) exceed $MAX or are missing" >&2
        exit 1
    fi
done

# Each derived result is built once, the rule graph once per program,
# registration resolves a program once and computes no numeric bounds, and
# the front end borrows names instead of copying them per item:
# allocations per `cold_pipeline` op in `store.load`, `rules.parse`,
# `rules.register` and `rules.derive`, from one short traced run, each
# ceiling a measured value plus 25 %.
# - `store.load`: 359.5 once extents were sorted vectors, attributes rows
#   of one vector per class, a sole neighbour inline and each association
#   built in bulk from its sorted links (709 with a box per object, a
#   vector per link key and a name lookup per line; 1 064 before a link
#   copied no `AssocDef` and an escape-free string skipped `unescape`).
# - `rules.parse`: 306 once keywords and directives matched without a
#   lower-case copy and the parser stopped cloning the tokens it steps
#   over (540 before).
# - `rules.register`: 467 once registration checked the rule graph's order
#   by reference (485 with a copy of it; 1 137 with a second resolution
#   and the bound tables).
# - `rules.derive`: 844.4 once dirty sets were sorted runs and an evaluator
#   kept no copy of its plan's index hints (845.7 once index extents and pairs
#   were counted row stores built on first request; 1 117 with a hash map per
#   slot and a vector per pair key; 1 133 once derivation counts were counted
#   row stores and rule caches were indexed by rule; 1 486 with a boxed key
#   per count and a hash table per seeded rule; 1 490 with frontier rounds and
#   a visited set; 1 544 before span joins wrote row runs; 1 679 with a `Vec`
#   per chain and a box per edited row; 2 565 with a box per pattern and per
#   projected key; 3 236 with two string copies per chain level; 4 182 with a
#   graph rebuild after every added rule and four copies of each seeded
#   result).
SUMMARY="$(bash benchmark/run.sh --workload cold_pipeline --seed 7 --seconds 2 --trace 1 | tail -n 1)"
for ceiling in store.load:450 rules.parse:382 rules.register:584 rules.derive:1056; do
    STAGE="${ceiling%%:*}"
    MAX="${ceiling##*:}"
    ALLOCS="$(metric "$STAGE.allocs_per_op")"
    if ! awk -v a="$ALLOCS" -v s="$STAGE" -v max="$MAX" \
        'BEGIN { if (a == "") exit 1
                 printf "ci: %s allocates %.1f per cold_pipeline op (ceiling %d)\n", s, a, max
                 exit (a > max) }'; then
        echo "ci: $STAGE allocations per cold_pipeline op ($ALLOCS) exceed $MAX or are missing" >&2
        exit 1
    fi
done
# The seed's counts, target and context copies in KB: 118.5 once dirty sets
# were sorted runs (123.2 once index extents and pairs were counted row stores
# built on first request; 155.2 with hash maps; 166.3 once derivation counts
# were counted row stores and the prefix copied only the rows it passes; 224.7
# with a boxed key per count and the whole context copied for the prefix),
# again a measured value plus 25 %.
kb_ceiling rules.derive.alloc_kb_per_op 149 cold_pipeline
# The loaded store in KB: 56.8 once objects, extents and association
# indexes were laid out as above (70.8 before), a measured value plus 25 %.
kb_ceiling store.load.alloc_kb_per_op 71 cold_pipeline

echo "ci: PASS"
