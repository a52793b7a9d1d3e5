# gate_lib.sh — shared baseline-diff helpers for the CI perf gates
# (ci/bench_gate.sh, ci/workload_gate.sh). Source it; do not execute.
#
# Both gates diff a machine-readable JSON report (an indented array of
# row objects, as written by `ode-bench -json`) against a committed
# baseline. The extraction is a line-oriented awk scan that relies on
# Go marshaling struct fields in declaration order and finds a key at
# any depth of a row (a mix row keeps `ops` in its `extra` map);
# ci_test.go and TestRegistrySmoke (internal/bench) pin what the scans
# assume, so the formats cannot drift silently.
#
# Baseline re-recording is one command per gate:
#
#   RECORD=1 ci/bench_gate.sh      # full run -> BENCH_3.json
#   RECORD=1 ci/workload_gate.sh   # short suite (embedded + loopback
#                                  #   remote) -> WORKLOAD_BASELINE.json

# gate_row FILE METRIC KEY=VAL [KEY=VAL...]
# Print METRIC's numeric value from the first row object whose fields
# match every KEY=VAL (string — spaces allowed — or numeric). Empty
# output: no such row.
gate_row() {
    local file=$1 metric=$2
    shift 2
    local conds
    conds=$(printf '%s|' "$@")
    awk -v conds="$conds" -v m="$metric" '
        # val strips the "key": prefix, surrounding quotes, and the
        # trailing comma from an indented JSON line.
        function val(line, key,    v) {
            v = line
            sub(/^[ \t]+/, "", v)
            v = substr(v, length(key) + 2)
            gsub(/[",]/, "", v)
            return v
        }
        BEGIN {
            n = split(conds, arr, "|")
            for (i = 1; i < n; i++) {
                eq = index(arr[i], "=")
                want["\"" substr(arr[i], 1, eq - 1) "\":"] = substr(arr[i], eq + 1)
            }
            metric = "\"" m "\":"
        }
        /^  \{/ { split("", seen); mv = "" }
        {
            key = $1
            if (key in want && val($0, key) == want[key]) seen[key] = 1
            if (key == metric && mv == "") mv = val($0, key)
        }
        /^  \},?$/ {
            ok = 1
            for (k in want) if (!(k in seen)) ok = 0
            if (ok && mv != "") { print mv; exit }
        }
    ' "$file"
}

# gate_check_max NAME CUR BASE TOL — lower is better (ns/op): fail when
# CUR exceeds BASE by more than TOL percent. Prints ok/FAIL; returns 1
# on failure or a missing value.
gate_check_max() {
    local name=$1 cur=$2 base=$3 tol=$4
    if [ -z "$base" ] || [ -z "$cur" ]; then
        echo "FAIL $name: row missing (baseline='$base' current='$cur')"
        return 1
    fi
    if awk -v c="$cur" -v b="$base" -v t="$tol" 'BEGIN{exit !(c <= b * (1 + t/100))}'; then
        printf 'ok   %-34s %12s ns/op  (baseline %s, tolerance %s%%)\n' "$name" "$cur" "$base" "$tol"
    else
        echo "FAIL $name: $cur ns/op regressed >$tol% over baseline $base"
        return 1
    fi
}

# gate_check_min NAME CUR BASE TOL — higher is better (ops/sec): fail
# when CUR falls short of BASE by more than TOL percent.
gate_check_min() {
    local name=$1 cur=$2 base=$3 tol=$4
    if [ -z "$base" ] || [ -z "$cur" ]; then
        echo "FAIL $name: row missing (baseline='$base' current='$cur')"
        return 1
    fi
    if awk -v c="$cur" -v b="$base" -v t="$tol" 'BEGIN{exit !(c >= b * (1 - t/100))}'; then
        printf 'ok   %-34s %12s ops/s  (baseline %s, tolerance %s%%)\n' "$name" "$cur" "$base" "$tol"
    else
        echo "FAIL $name: $cur ops/s regressed >$tol% below baseline $base"
        return 1
    fi
}

# gate_check_eq NAME CUR BASE — exact match (deterministic op counts).
gate_check_eq() {
    local name=$1 cur=$2 base=$3
    if [ -z "$base" ] || [ -z "$cur" ]; then
        echo "FAIL $name: row missing (baseline='$base' current='$cur')"
        return 1
    fi
    if [ "$cur" = "$base" ]; then
        printf 'ok   %-34s %12s ops (deterministic)\n' "$name" "$cur"
    else
        echo "FAIL $name: op count $cur != baseline $base — the seeded mix is no longer deterministic"
        return 1
    fi
}

# gate_record_min OUT FILE... — write OUT as the first report with
# each "ops_per_sec" value replaced by the minimum across all the
# reports, row by row. Used by RECORD=1: a baseline taken from one hot
# run sits too close to the gate's floor on a noisy host, so the
# recorded floor is the worst of several runs. The deterministic
# fields are taken from the first report unchanged (the op counts are
# identical across runs by construction — the gate itself enforces
# that on every CI run).
gate_record_min() {
    local out=$1
    shift
    local mins
    mins=$(awk '
        FNR == 1 { f++ }
        $1 == "\"ops_per_sec\":" {
            v = $2
            sub(/,$/, "", v)
            n = ++cnt[f]
            if (!(n in min) || v + 0 < min[n] + 0) min[n] = v
        }
        END {
            for (i = 2; i <= f; i++)
                if (cnt[i] != cnt[1]) { print "MISMATCH"; exit }
            s = ""
            for (i = 1; i <= cnt[1]; i++) s = s min[i] " "
            print s
        }
    ' "$@")
    case $mins in
    MISMATCH*|"")
        echo "FAIL gate_record_min: runs produced different row sets"
        return 1
        ;;
    esac
    awk -v mins="$mins" '
        BEGIN { split(mins, m, " ") }
        $1 == "\"ops_per_sec\":" {
            i++
            print "    \"ops_per_sec\": " m[i] ","
            next
        }
        { print }
    ' "$1" >"$out"
}

# gate_skip_single_cpu — concurrency throughput is noise when the
# workers time-slice one core; bench_gate.sh skips entirely and
# workload_gate.sh skips its throughput check rather than flake.
gate_skip_single_cpu() {
    local cpus
    cpus=$(nproc 2>/dev/null || echo 1)
    if [ "$cpus" -lt 2 ]; then
        echo "skip: $cpus CPU — concurrent throughput is not measurable on a single core"
        return 0
    fi
    return 1
}
