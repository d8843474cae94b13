// Binary (de)serialization of Modules — the RESMOD1 wire format.
//
// Modules have so far traveled only as text IR (ParseModule/PrintModule);
// this is the compact versioned container the sweep driver mints fixtures in
// and resdbg auto-detects by magic. Same codec idiom as the coredump
// format: little-endian, u64 magic + u32 version, every untrusted
// length checked against the remaining payload (FitsRemaining) before it is
// trusted. docs/ARCHITECTURE.md §12.
#ifndef RES_IR_MODULE_SERIALIZE_H_
#define RES_IR_MODULE_SERIALIZE_H_

#include <cstdint>
#include <vector>

#include "src/ir/module.h"
#include "src/support/faultpoint.h"
#include "src/support/status.h"

namespace res {

// True when `bytes` begins with the RESMOD1 magic (loader auto-detection;
// says nothing about the rest of the payload).
bool LooksLikeBinaryModule(const std::vector<uint8_t>& bytes);

// Little-endian, versioned container. Round-trips exactly:
// SerializeModule(DeserializeModule(b)) == b for any b this parser accepts.
std::vector<uint8_t> SerializeModule(const Module& module);

// Parses an UNTRUSTED byte stream. Every length field is checked against the
// remaining payload before it is trusted (no out-of-bounds reads, no
// attacker-controlled allocations), and every failure — truncation, bad
// magic, oversized counts, non-canonical string table, trailing garbage —
// returns kDataLoss, never a crash. A structurally well-formed result may
// still be semantically garbage; run VerifyModule before executing it.
// `faults` carries the "module.deserialize" fault site.
Result<Module> DeserializeModule(const std::vector<uint8_t>& bytes,
                                 const FaultScope& faults = {});

}  // namespace res

#endif  // RES_IR_MODULE_SERIALIZE_H_
