// Durable ModuleFacts — the versioned fact-log wire format.
//
// A fact log is one module's promoted, cross-task-reusable state, flattened
// in commit order so a restarted process can resume exactly where the old
// one stopped (ROADMAP item 1, first half; docs/ARCHITECTURE.md §10):
//
//   header     magic ("RESFACT1"), format version, module fingerprint
//              (content hash of the printed IR — a log binds to one module
//              body, not to one process)
//   var table  the symbolic variables referenced by the promoted cores, in
//              first-encounter order: (name, origin, deterministic uid).
//              VarIds are arrival-order pool indices and do NOT survive a
//              restart; (name, uid) is the cross-process identity that
//              ExprPool::InternVar re-interns deterministically. Engine
//              variable names are rendered from their VarKey on export.
//   expr table the deduped expression DAG in dependency order (children
//              strictly before parents), each node referencing earlier
//              entries by index — the serialized mirror of the pool's
//              content-addressed sharing.
//   cores      the module's live promoted UNSAT cores in publication-seq
//              order, each a list of expr-table indices.
//   keys       the promoted cold-check keys in promotion order, each tagged
//              with the solver-options fingerprint it was committed under.
//
// Every section is length-prefixed and count-gated (the FitsRemaining idiom
// of src/coredump/serialize.cc): corrupt or truncated bytes parse to
// kDataLoss, never to a crash or an unbounded allocation. A version
// mismatch is kFailedPrecondition — the bytes are healthy, the reader is
// just the wrong vintage. Cross-process identity rests on two deterministic
// hashes: the module fingerprint (import refuses a log minted from a
// different IR body) and the per-key solver fingerprint (a promoted key is
// only valid under the exact solver configuration that committed it).
//
// A log that PARSES is trusted content, the same trust boundary as the
// in-process promoted store it snapshots: import validates structure and
// identity, not that each core is genuinely an UNSAT core. Fact logs are
// operator-managed state (a daemon's own shutdown snapshot), not
// field-submitted input like coredumps.
#ifndef RES_RES_FACTS_SERIALIZE_H_
#define RES_RES_FACTS_SERIALIZE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/ir/module.h"
#include "src/support/status.h"

namespace res {

inline constexpr uint32_t kFactsLogVersion = 1;

// One var-table entry. `origin` is the VarOrigin encoding (validated on
// parse); `uid` the creator's deterministic namespace key
// (ExprPool::var_uid).
struct FactsLogVar {
  std::string name;
  uint8_t origin = 0;
  uint64_t uid = 0;
};

// One expr-table node. `kind` is the ExprKind encoding; exactly the fields
// that kind uses are meaningful. Child indices (a, b, c) and the var-table
// index are validated on parse: children strictly precede their parent.
struct FactsLogExpr {
  uint8_t kind = 0;
  uint8_t bin_op = 0;             // kBinary: the BinOp encoding
  int64_t value = 0;              // kConst
  uint32_t var = 0;               // kVar: var-table index
  uint32_t a = 0, b = 0, c = 0;   // kBinary: a,b  kSelect: a,b,c
};

// The parsed (or to-be-serialized) fact log. Plain data: building one from
// a live runtime and applying one to a runtime live in ResRuntime
// (ExportFacts / ImportFacts); this header is only the codec.
struct FactsLog {
  uint32_t version = kFactsLogVersion;
  uint64_t module_fingerprint = 0;
  std::vector<FactsLogVar> vars;
  std::vector<FactsLogExpr> exprs;
  // Live promoted cores in publication-seq order; each element is an
  // expr-table index. Cores are never empty (an empty core would vacuously
  // refute every hypothesis; parse rejects it as corruption).
  std::vector<std::vector<uint32_t>> cores;
  struct Key {
    uint64_t set_key = 0;
    uint32_t distinct = 0;
    bool portfolio = false;
    uint64_t solver_fingerprint = 0;
  };
  std::vector<Key> keys;  // promoted cold-check keys, promotion order
};

// Content hash of the module's printed IR: identical across processes for
// the same module body, different for any semantic change the printer can
// see. This is what binds a fact log to its module.
uint64_t ModuleFingerprint(const Module& module);

// Serialization is deterministic: the same log yields the same bytes, so
// export → import → export round-trips byte-identically.
std::vector<uint8_t> SerializeFactsLog(const FactsLog& log);

// kDataLoss for truncated/corrupt bytes (bad magic, malformed sections,
// out-of-range indices, trailing bytes); kFailedPrecondition for a healthy
// log of an unsupported format version. Never crashes on arbitrary input.
Result<FactsLog> ParseFactsLog(const std::vector<uint8_t>& bytes);

// Human-readable one-screen summary (the `resdbg facts` command).
std::string FactsLogSummary(const FactsLog& log);

}  // namespace res

#endif  // RES_RES_FACTS_SERIALIZE_H_
