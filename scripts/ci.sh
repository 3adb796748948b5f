#!/usr/bin/env bash
# Offline CI gate: formatting, lints, tests. No network access required.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test -q"
cargo test --workspace -q

echo "== TBClip differential oracle, packed queue key and RVAQ's K-split, deep (PROPTEST_CASES=2000, debug assertions on)"
# TBClip ranks step 2 / 4 candidates by memoised-score keys with two tie
# rules, re-keying in place off a queue whose stored keys must never rank
# ahead of a clip's current one; it is correct only while it matches the
# bound-ordered BTree reference step for step, so run the oracle far past
# the default 64 cases with that invariant's debug_assert compiled in. The
# queue's key is one packed u128 that must order exactly as its
# (merit, moved, Reverse(clip)) tuple, and RVAQ splits PQ_lo^K off by
# selection, which must give the full sort's K-set and bounds; both are
# properties of their own. Its own target directory keeps the plain
# release build from being rebuilt.
PROPTEST_CASES=2000 CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true \
  CARGO_TARGET_DIR=target/debug-assertions \
  cargo test --release -q -p svq-core --test tbclip_differential
PROPTEST_CASES=2000 CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true \
  CARGO_TARGET_DIR=target/debug-assertions \
  cargo test --release -q -p svq-core --lib -- \
  packed_place_orders_as_the_tuple selection_split_matches_the_full_sort

echo "== occurrence memo, one-step clip charge, censoring cap, critical-value registry and cell walk, kernel estimator and its per-window table, deep (PROPTEST_CASES=2000)"
# The online engines read Algorithm 2's counts from the oracle's per-class
# memo, a clip's inference cost is charged in one step, SVAQD stops its
# censoring quantile at ceil(count/2), its critical values come from a
# capped process-wide registry of dense per-config tables whose cell each
# predicate finds by walking the cell edges from its last lookup, and its
# background estimator advances a clip's units in one closed-form step,
# read from a per-window table of run constants; each is correct only
# while it equals its definition (the row scan, the per-unit charge loop
# bit for bit, the capped quantile, the per-table map memo, key's
# logarithm at every cell edge and from any hint, the per-unit
# recurrence, observe_run bit for bit) and the registry stays within its
# capacity under hostile configs, so run the properties far past the
# default 64 cases. The `registry` filter takes the cell-walk tests, the
# `observe_run` filter the per-window table's.
PROPTEST_CASES=2000 cargo test --release -q -p svq-vision --test occurrence_memo --test ledger
PROPTEST_CASES=2000 cargo test --release -q -p svq-scanstats --lib -- quantile_at_most registry observe_run

echo "== JSON encode, decode and parse, deep (PROPTEST_CASES=2000), and the wire and request goldens"
# Every frame's codec is derived both ways (serde_derive emits the text
# path, write_json/read_json, and the tree path, to_value/from_value,
# from one declaration); only VideoScope's shape, the pipeline id trailer
# and the frames' shared id reader are hand-written. It is correct only
# while the bytes equal the tree's for every protocol type, non-finite
# floats fail both ways, the text decodes back to the value, every text
# (shuffled, repeated, unknown or escaped keys, wrong types, truncated)
# reads as its tree does and a request line gets the tree decoder's
# reject reason, request frames round-trip and garbage never panics the
# request decoder (hardening), the derive's tagged shapes and default
# members read alike on both paths (serde_json's text test), and the
# parser's nesting limit holds at every depth. One derive generating both
# paths makes them agree by construction, so the wire golden pins the
# literal line of every frame shape and the request golden the outcome
# of hand-picked request lines.
PROPTEST_CASES=2000 cargo test --release -q -p svq-serve --test encode
PROPTEST_CASES=2000 cargo test --release -q -p svq-serve --test decode
PROPTEST_CASES=2000 cargo test --release -q -p svq-serve --test hardening
PROPTEST_CASES=2000 cargo test --release -q -p serde_json --test text
cargo test --release -q -p svq-serve --test wire_golden
cargo test --release -q -p svq-serve --test request_golden

echo "== movie_topk example (ingest, persist, top-K queries reading each run's own accesses)"
cargo run -q --release --example movie_topk

echo "== surveillance_stream example (one engine stepped over three videos, next_video between them)"
cargo run -q --release --example surveillance_stream

echo "== svq-lint --check (workspace invariants + static lock graph)"
# Hard gate: token rules plus the workspace concurrency passes
# (lock-cycle, blocking-under-lock). Any finding fails; deliberate
# exceptions carry an inline `// svq-lint: allow(<rule>)`.
cargo run -p svq-lint -q -- --check
cargo run -p svq-lint -q -- --format json >/dev/null  # results/lint-report.json

echo "== cargo clippy -p parking_lot --features lock-audit -D warnings (the audited build's own lints)"
cargo clippy -p parking_lot --features lock-audit -- -D warnings

echo "== cargo test --features lock-audit (lock-order deadlock auditor)"
cargo test --workspace --features lock-audit -q

echo "== runtime ⊆ static lock-graph cross-check (soundness gate)"
# Every lock edge the runtime auditor observes in the mux and serve
# workloads must be admitted by svq-lint's static graph — if not, the
# static analysis lost a guard region and its rules can't be trusted.
cargo test -p svq-exec --features lock-audit --test static_cross_check -q
cargo test -p svq-serve --features lock-audit --test static_cross_check -q

echo "== repro ingest-spill smoke (workers {1,2}, byte-identity + hand-off bound)"
cargo run -q --release -p svq-bench --bin repro -- ingest-spill \
  --scale 0.02 --out target/ci-results

echo "== one svqbench binary (the workspace build and the benchmark's -p build are one program)"
# The benchmark runs `cargo run -p svqbench`; the layer figures it reports
# only time the shipped program if no feature unification makes a
# workspace build compile a different lock or channel layer into it.
cargo build --release --workspace -q
SVQBENCH_HASH=$(sha256sum target/release/svqbench)
cargo build --release -q -p svqbench
[ "$(sha256sum target/release/svqbench)" = "$SVQBENCH_HASH" ] || {
  echo "cargo build -p svqbench rebuilt a different svqbench than --workspace"; exit 1; }

echo "== svqbench --quick (the four gated workloads and fanout_push: every response verified, none failed)"
# Each run builds its system, drives it for about a second and checks every
# response against in-process execution; the last stdout line is the
# result. A wrong answer or a failed operation fails CI, not just the gate.
# fanout_push is ungated; its reference events come from SessionMux.
for WORKLOAD in topk_hot topk_cold routed_burst stream_online fanout_push; do
  RESULT=$(cargo run -q --release -p svqbench -- --workload "$WORKLOAD" --quick --trace 0 | tail -n 1)
  case "$RESULT" in
    *'"correct": true'*'"failed": 0,'*) echo "   $WORKLOAD: correct, 0 failed" ;;
    *) echo "svqbench $WORKLOAD is not correct or has failures: $RESULT"; exit 1 ;;
  esac
done

echo "== sim sweep (deterministic simulation, \${SIM_SCHEDULES:-200} schedules/scenario)"
# Fixed base seed + bounded schedule count: the corpus and both 200-schedule
# sweeps take about a minute and a half of wall time on two cores (virtual
# time does the waiting; a task switch wakes only the task the scheduler
# picked). A failing schedule prints a one-line
# `svqact sim --scenario … --seed …` repro command. Raise SIM_SCHEDULES for
# a deeper nightly sweep; `repro -- sim` at full scale runs the
# ≥1000-schedule verification sweep.
SIM_SCHEDULES="${SIM_SCHEDULES:-200}"
cargo run -q --release -p svqact -- sim --corpus true
cargo run -q --release -p svqact -- sim --schedules "$SIM_SCHEDULES" \
  --scenario all --seed 48879
cargo run -q --release -p svqact -- sim --schedules "$SIM_SCHEDULES" \
  --scenario all --seed 48879 --faults all

echo "== svqact mux (2 streams on 2 workers; degenerate and unknown flags exit 1)"
MUX_SQL="SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
         WHERE act='jumping' AND obj.include('car')"
cargo run -q --release -p svqact -- mux --streams 2 --workers 2 \
  --minutes 0.5 --sql "$MUX_SQL"
for BAD in "--workers 0" "--metrics-every inf" "--drain-batch 4"; do
  STATUS=0
  # shellcheck disable=SC2086 # BAD is a flag and its value
  cargo run -q --release -p svqact -- mux $BAD --sql "$MUX_SQL" || STATUS=$?
  [ "$STATUS" -eq 1 ] || { echo "svqact mux $BAD exited $STATUS, expected 1"; exit 1; }
done

echo "== svqact serve round trip (ephemeral port, wire shutdown)"
SERVE_DIR=target/ci-serve
rm -rf "$SERVE_DIR" && mkdir -p "$SERVE_DIR"
cargo run -q --release -p svqact -- synth --minutes 2 --action archery \
  --objects person --seed 7 --out "$SERVE_DIR/scene.json"
cargo run -q --release -p svqact -- ingest --scene "$SERVE_DIR/scene.json" \
  --models ideal --out "$SERVE_DIR/catalog.svqc"
cargo run -q --release -p svqact -- serve --catalog "$SERVE_DIR/catalog.svqc" \
  --scene "$SERVE_DIR/scene.json" --models ideal \
  --addr-file "$SERVE_DIR/addr" --drain-timeout-ms 10000 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$SERVE_DIR/addr" ] && break
  sleep 0.1
done
[ -s "$SERVE_DIR/addr" ] || { echo "serve never bound"; kill "$SERVE_PID"; exit 1; }
ADDR=$(cat "$SERVE_DIR/addr")
cargo run -q --release -p svqact -- request --addr "$ADDR" --kind stats
cargo run -q --release -p svqact -- request --addr "$ADDR" --kind query \
  --sql "SELECT MERGE(clipID), RANK(act,obj) FROM (PROCESS v PRODUCE clipID) \
         WHERE act='archery' AND obj.include('person') \
         ORDER BY RANK(act,obj) LIMIT 2"
cargo run -q --release -p svqact -- request --addr "$ADDR" --kind stream \
  --sql "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
         WHERE act='archery' AND obj.include('person')"
# Pipelined (protocol v2): three id-tagged copies in flight at once.
cargo run -q --release -p svqact -- request --addr "$ADDR" --kind query \
  --repeat 3 \
  --sql "SELECT MERGE(clipID), RANK(act,obj) FROM (PROCESS v PRODUCE clipID) \
         WHERE act='archery' AND obj.include('person') \
         ORDER BY RANK(act,obj) LIMIT 2"
cargo run -q --release -p svqact -- request --addr "$ADDR" --kind shutdown
wait "$SERVE_PID"

echo "== svqact subscribe round trip (live source, one event, explicit unsubscribe, wire shutdown)"
SUB_DIR=target/ci-subscribe
rm -rf "$SUB_DIR" && mkdir -p "$SUB_DIR"
# Serve has no mailbox or ingress-shard knob, and a source whose frame
# count overflows is refused up front; each exits 1 instead of serving.
for BAD in "--mailbox 4" "--shards 2" "--source minutes=18446744073709551615"; do
  STATUS=0
  # shellcheck disable=SC2086 # BAD is a flag and its value
  timeout 60 cargo run -q --release -p svqact -- serve $BAD \
    --addr-file "$SUB_DIR/refused.addr" || STATUS=$?
  [ "$STATUS" -eq 1 ] || { echo "svqact serve $BAD exited $STATUS, expected 1"; exit 1; }
done
cargo run -q --release -p svqact -- serve \
  --source action=jumping,objects=car,minutes=10,seed=42,rate=400 \
  --addr-file "$SUB_DIR/addr" --drain-timeout-ms 10000 &
SUB_SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$SUB_DIR/addr" ] && break
  sleep 0.1
done
[ -s "$SUB_DIR/addr" ] || { echo "source serve never bound"; kill "$SUB_SERVE_PID"; exit 1; }
SADDR=$(cat "$SUB_DIR/addr")
# Subscribe, take one pushed event, unsubscribe; the printed frames must
# include the event and the terminal accounting. A standing CNF statement
# subscribes alongside, over the same replay.
cargo run -q --release -p svqact -- subscribe --addr "$SADDR" --events 1 \
  --sql "SELECT MERGE(clipID) AS Sequence \
         FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectDetector, \
         act USING ActionRecognizer) \
         WHERE act='jumping' AND (obj.include('car') OR obj.include('car'))" \
  > "$SUB_DIR/cnf-frames.jsonl" &
CNF_SUB_PID=$!
cargo run -q --release -p svqact -- subscribe --addr "$SADDR" --events 1 \
  --sql "SELECT MERGE(clipID) AS Sequence \
         FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectDetector, \
         act USING ActionRecognizer) \
         WHERE act='jumping' AND obj.include('car')" \
  | tee "$SUB_DIR/frames.jsonl"
wait "$CNF_SUB_PID"
cat "$SUB_DIR/cnf-frames.jsonl"
for FRAMES in frames.jsonl cnf-frames.jsonl; do
  grep -q '"kind": *"event"' "$SUB_DIR/$FRAMES"
  grep -q '"kind": *"unsubscribed"' "$SUB_DIR/$FRAMES"
done
cargo run -q --release -p svqact -- request --addr "$SADDR" --kind shutdown
wait "$SUB_SERVE_PID"

echo "== svqact route round trip (2 hash-sliced shards behind one router, wire shutdown)"
CLUSTER_DIR=target/ci-cluster
rm -rf "$CLUSTER_DIR" && mkdir -p "$CLUSTER_DIR"
cargo run -q --release -p svqact -- serve --catalog "$SERVE_DIR/catalog.svqc" \
  --scene "$SERVE_DIR/scene.json" --models ideal \
  --shard-index 0 --shard-count 2 \
  --addr-file "$CLUSTER_DIR/shard0.addr" --drain-timeout-ms 10000 &
SHARD0_PID=$!
cargo run -q --release -p svqact -- serve --catalog "$SERVE_DIR/catalog.svqc" \
  --scene "$SERVE_DIR/scene.json" --models ideal \
  --shard-index 1 --shard-count 2 \
  --addr-file "$CLUSTER_DIR/shard1.addr" --drain-timeout-ms 10000 &
SHARD1_PID=$!
for f in shard0.addr shard1.addr; do
  for _ in $(seq 1 100); do
    [ -s "$CLUSTER_DIR/$f" ] && break
    sleep 0.1
  done
  [ -s "$CLUSTER_DIR/$f" ] || { echo "$f never bound"; exit 1; }
done
cargo run -q --release -p svqact -- route \
  --shards "$(cat "$CLUSTER_DIR/shard0.addr"),$(cat "$CLUSTER_DIR/shard1.addr")" \
  --addr-file "$CLUSTER_DIR/route.addr" --drain-timeout-ms 10000 &
ROUTE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$CLUSTER_DIR/route.addr" ] && break
  sleep 0.1
done
[ -s "$CLUSTER_DIR/route.addr" ] || { echo "route never bound"; exit 1; }
RADDR=$(cat "$CLUSTER_DIR/route.addr")
# Cluster stats view, cross-catalog scatter-gather top-k, and a stream
# whose omitted target is resolved by a cluster-wide sole-video check.
cargo run -q --release -p svqact -- request --addr "$RADDR" --kind stats
cargo run -q --release -p svqact -- request --addr "$RADDR" --kind query \
  --video all \
  --sql "SELECT MERGE(clipID), RANK(act,obj) FROM (PROCESS v PRODUCE clipID) \
         WHERE act='archery' AND obj.include('person') \
         ORDER BY RANK(act,obj) LIMIT 2"
cargo run -q --release -p svqact -- request --addr "$RADDR" --kind stream \
  --sql "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
         WHERE act='archery' AND obj.include('person')"
cargo run -q --release -p svqact -- request --addr "$RADDR" --kind shutdown
wait "$ROUTE_PID"
cargo run -q --release -p svqact -- request \
  --addr "$(cat "$CLUSTER_DIR/shard0.addr")" --kind shutdown
cargo run -q --release -p svqact -- request \
  --addr "$(cat "$CLUSTER_DIR/shard1.addr")" --kind shutdown
wait "$SHARD0_PID" "$SHARD1_PID"

echo "CI OK"
