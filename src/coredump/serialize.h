// Binary (de)serialization of coredumps — the wire format a production
// crash handler would ship to the triage service.
#ifndef RES_COREDUMP_SERIALIZE_H_
#define RES_COREDUMP_SERIALIZE_H_

#include <cstdint>
#include <vector>

#include "src/coredump/coredump.h"
#include "src/support/faultpoint.h"
#include "src/support/status.h"

namespace res {

// Little-endian, versioned container. Round-trips exactly.
std::vector<uint8_t> SerializeCoredump(const Coredump& dump);

// Parses an UNTRUSTED byte stream. Every length field is checked against
// the remaining payload before it is trusted (no out-of-bounds reads, no
// attacker-controlled allocations), and the memory image must have the
// shape a VM captures (aligned ascending words in the globals segment or
// in heap allocations that tile the heap, each allocation word present)
// before a page is built, so a blob cannot map far more memory than it
// carries. Every failure — truncation, bad magic, oversized counts, a
// misshapen image, trailing garbage — returns kDataLoss. When the caller
// knows the `module` the dump claims to be a crash of, a globals word
// outside every global it declares is refused too, before any page is
// built; without it the image may map anywhere in the globals segment. A
// structurally well-formed result may still be semantically garbage; run
// Coredump::Validate against the module before handing it to an engine.
// `faults` carries the "coredump.deserialize" fault site (tests / the
// RES_FAULT_PLAN env can make this call fail deterministically).
Result<Coredump> DeserializeCoredump(const std::vector<uint8_t>& bytes,
                                     const FaultScope& faults = {},
                                     const Module* module = nullptr);

}  // namespace res

#endif  // RES_COREDUMP_SERIALIZE_H_
