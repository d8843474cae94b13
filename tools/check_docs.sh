#!/usr/bin/env bash
# Docs link/path checker: fails if README.md, docs/ARCHITECTURE.md, or
# docs/SCENARIOS.md reference repository paths that do not exist, if
# the SCENARIOS.md scheduler-policy catalog drifts out of sync with the
# registry in src/vm/scheduler_spec.cc, if the RESMOD1 wire-format
# version documented in ARCHITECTURE.md §12 drifts from the codec's
# kVersion constant in src/ir/module_serialize.cc, if bench/README.md's
# bench-only key table drifts from the keys bench/bench_util.h writes
# beside the stats lists, or if ARCHITECTURE.md §7.1's fault-site table
# drifts from the sites src/ registers.
#
# Checked references:
#   - markdown links pointing into the repo:  [text](path)
#   - inline code spans that look like paths: `src/res/reverse_engine.h`
#   - policy names: every RegisteredSchedulerPolicies() row must appear as
#     a catalog table row in docs/SCENARIOS.md, and vice versa
#   - bench-only keys: every key BenchJsonWriter writes outside the stats
#     lists must be a row of bench/README.md's "Bench-only keys" table, and
#     vice versa
#   - fault sites: every RES_FAULT_SITE name under src/ must be a row of
#     docs/ARCHITECTURE.md §7.1's site table, and vice versa
#
# Usage: tools/check_docs.sh   (from the repository root)
set -u

fail=0

check_path() {
  local doc="$1" ref="$2"
  # Strip anchors and trailing slashes.
  local path="${ref%%#*}"
  path="${path%/}"
  [ -z "$path" ] && return 0
  # Resolve relative to the doc's directory, then fall back to repo root.
  local base
  base="$(dirname "$doc")"
  if [ -e "$base/$path" ] || [ -e "$path" ]; then
    return 0
  fi
  echo "ERROR: $doc references missing path: $ref"
  fail=1
}

check_doc() {
  local doc="$1"
  if [ ! -f "$doc" ]; then
    echo "ERROR: required doc missing: $doc"
    fail=1
    return
  fi

  # Markdown links: capture the (target); skip URLs.
  while IFS= read -r ref; do
    case "$ref" in
      http://*|https://*|mailto:*) continue ;;
    esac
    check_path "$doc" "$ref"
  done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//')

  # Inline code spans that look like repo paths: contain a '/' and consist
  # of path characters only. Skip flags, globs, and templated examples.
  while IFS= read -r ref; do
    case "$ref" in
      -*|*\**|*\<*|*..*) continue ;;
    esac
    check_path "$doc" "$ref"
  done < <(grep -oE '`[A-Za-z0-9_./-]+`' "$doc" | tr -d '`' | grep '/')
}

check_policy_sync() {
  local registry="src/vm/scheduler_spec.cc" catalog="docs/SCENARIOS.md"
  if [ ! -f "$registry" ] || [ ! -f "$catalog" ]; then
    echo "ERROR: policy sync inputs missing ($registry, $catalog)"
    fail=1
    return
  fi
  # Registry rows look like:  {"rr", "quantum", ...  — the name is the
  # first string literal. Bounded to the RegisteredSchedulerPolicies()
  # initializer by matching only row-opening braces.
  local registered catalogued
  registered="$(grep -oE '^\s*\{"[a-z_]+"' "$registry" \
      | grep -oE '"[a-z_]+"' | tr -d '"' | sort)"
  # Catalog rows are markdown table lines whose first cell is `name`.
  catalogued="$(grep -oE '^\| `[a-z_]+` \|' "$catalog" \
      | grep -oE '`[a-z_]+`' | tr -d '\`' | sort)"
  if [ -z "$registered" ]; then
    echo "ERROR: no policy rows found in $registry (pattern drift?)"
    fail=1
    return
  fi
  if [ "$registered" != "$catalogued" ]; then
    echo "ERROR: scheduler policy catalog out of sync"
    echo "  registry  ($registry): $(echo $registered)"
    echo "  catalog   ($catalog): $(echo $catalogued)"
    fail=1
  fi
}

check_module_format_sync() {
  local codec="src/ir/module_serialize.cc" arch="docs/ARCHITECTURE.md"
  if [ ! -f "$codec" ] || [ ! -f "$arch" ]; then
    echo "ERROR: module format sync inputs missing ($codec, $arch)"
    fail=1
    return
  fi
  # The codec's version constant must match the version ARCHITECTURE.md
  # §12 documents as "RESMOD1 wire format (version N)" — bumping one
  # without the other is exactly the drift this catches.
  local code_version doc_version
  code_version="$(grep -oE 'kVersion = [0-9]+' "$codec" \
      | grep -oE '[0-9]+' | head -1)"
  doc_version="$(grep -oE 'RESMOD1 wire format \(version [0-9]+\)' "$arch" \
      | grep -oE '[0-9]+' | head -1)"
  if [ -z "$code_version" ]; then
    echo "ERROR: no kVersion constant found in $codec (pattern drift?)"
    fail=1
    return
  fi
  if [ -z "$doc_version" ]; then
    echo "ERROR: $arch does not document the RESMOD1 wire format version"
    fail=1
    return
  fi
  if [ "$code_version" != "$doc_version" ]; then
    echo "ERROR: RESMOD1 version drift: $codec says $code_version," \
         "$arch says $doc_version"
    fail=1
  fi
}

check_bench_keys_sync() {
  local util="bench/bench_util.h" readme="bench/README.md"
  if [ ! -f "$util" ] || [ ! -f "$readme" ]; then
    echo "ERROR: bench key sync inputs missing ($util, $readme)"
    fail=1
    return
  fi
  # Bench-only keys are the writer's literal add("key", ...) calls plus the
  # RES_BENCH_VALUES entries, which look like:  X(uint64_t, sweep_runs)
  local written documented
  written="$( { grep -oE 'add\("[a-z_]+"' "$util" | grep -oE '"[a-z_]+"' \
                  | tr -d '"'
                grep -oE '^\s*X\([a-z0-9_:]+, [a-z_]+\)' "$util" \
                  | grep -oE '[a-z_]+\)' | tr -d ')'; } | sort)"
  # Table rows of the "### Bench-only keys" section: | `key` | ... |
  documented="$(awk '/^### Bench-only keys/ { on = 1; next }
                     /^#/ { on = 0 }
                     on' "$readme" \
      | grep -oE '^\| `[a-z_]+` ' | grep -oE '`[a-z_]+`' | tr -d '\`' | sort)"
  if [ -z "$written" ]; then
    echo "ERROR: no bench-only keys found in $util (pattern drift?)"
    fail=1
    return
  fi
  if [ "$written" != "$documented" ]; then
    echo "ERROR: bench-only key table out of sync"
    echo "  writer ($util): $(echo $written)"
    echo "  table  ($readme): $(echo $documented)"
    fail=1
  fi
}

check_fault_sites_sync() {
  local arch="docs/ARCHITECTURE.md"
  if [ ! -d src ] || [ ! -f "$arch" ]; then
    echo "ERROR: fault-site sync inputs missing (src/, $arch)"
    fail=1
    return
  fi
  # Sites are declared at namespace scope, one per line start:
  #   RES_FAULT_SITE(kFaultValidate, "coredump.validate", ...
  local registered documented
  registered="$(grep -rhoE '^RES_FAULT_SITE\([A-Za-z0-9_]+, "[a-z_.]+"' src \
      | grep -oE '"[a-z_.]+"' | tr -d '"' | sort)"
  # Table rows of the "### 7.1" section: | `site` | domain | code |
  documented="$(awk '/^### 7\.1 / { on = 1; next }
                     /^#/ { on = 0 }
                     on' "$arch" \
      | grep -oE '^\| `[a-z_.]+` ' | grep -oE '`[a-z_.]+`' | tr -d '\`' | sort)"
  if [ -z "$registered" ]; then
    echo "ERROR: no RES_FAULT_SITE declarations found under src/ (pattern drift?)"
    fail=1
    return
  fi
  if [ "$registered" != "$documented" ]; then
    echo "ERROR: fault-site table out of sync"
    echo "  registered (src/): $(echo $registered)"
    echo "  table      ($arch §7.1): $(echo $documented)"
    fail=1
  fi
}

check_doc README.md
check_doc docs/ARCHITECTURE.md
check_doc docs/SCENARIOS.md
check_policy_sync
check_module_format_sync
check_bench_keys_sync
check_fault_sites_sync

if [ "$fail" -ne 0 ]; then
  echo "docs check FAILED"
  exit 1
fi
echo "docs check OK"
