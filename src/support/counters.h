// Counter lists: every stats struct declares each of its counters once, in
// an X-macro list beside the struct, and derives its fields, its += and its
// counter walk (bench records, golden signatures) from that list. An entry
// names the field; the entry macro says how it merges and which key it is
// reported under:
//
//   SUM(field)            uint64_t, merged by adding; key "field"
//   MAX(field)            uint64_t high-water mark, merged by max
//   SUM_AS(field, key)    summed; reported under a key other than its field
//
// A list's comments are the counters' documentation. The expanders below
// turn an entry into one derived piece; += bodies name their operand `o`,
// ForEachCounter bodies name their callback `fn` (called as fn(key, value)).
#ifndef RES_SUPPORT_COUNTERS_H_
#define RES_SUPPORT_COUNTERS_H_

#include <algorithm>
#include <cstdint>

#define RES_COUNTER_FIELD(field, ...) uint64_t field = 0;
#define RES_COUNTER_SUM(field, ...) field += o.field;
#define RES_COUNTER_MAX(field) field = std::max(field, o.field);
#define RES_COUNTER_VISIT(field) fn(#field, field);
#define RES_COUNTER_VISIT_AS(field, key) fn(#key, field);

#endif  // RES_SUPPORT_COUNTERS_H_
