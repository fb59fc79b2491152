// Input generation and the independent answer oracle.
//
// Everything a run sends is derived from the workload seed before timing
// starts: the base relation, the read pool with each request's expected
// answer, and the writers' scripts. Expected answers come from a plain
// φ-sorted std::vector model and never from the engine, so a wrong answer
// from any layer of the served path fails the run.
#ifndef AVQDB_PERFBENCH_MODEL_H_
#define AVQDB_PERFBENCH_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/db/query.h"
#include "src/db/write_batch.h"
#include "src/schema/schema.h"
#include "src/schema/tuple.h"

namespace perfbench {

using avqdb::OrdinalTuple;

// Order-insensitive fingerprint of one tuple; a result's fingerprint is
// the wrapping sum over its tuples.
uint64_t TupleHash(const OrdinalTuple& tuple);

struct ReadRequest {
  avqdb::ConjunctiveQuery query;
  // Tuples of the answer and their summed TupleHash. Under concurrent
  // writes these cover only the tuples no writer touches.
  uint64_t expect_count = 0;
  uint64_t expect_hash = 0;
};

// The relation a workload serves, plus everything derived from it.
struct Inputs {
  avqdb::SchemaPtr schema;
  std::vector<OrdinalTuple> tuples;  // φ-sorted, unique: the initial set
  std::vector<size_t> secondary_attrs;
  std::vector<ReadRequest> reads;  // cycled by the readers
  // One script of MUTATE batches per writer connection. Writers touch
  // pairwise disjoint tuples, so no interleaving makes an op fail.
  std::vector<std::vector<avqdb::WriteBatch>> writer_batches;
  uint64_t write_ops = 0;
  uint64_t write_payload_bytes = 0;  // summed WriteBatch payloads
  std::vector<uint8_t> touched;      // per initial tuple: a writer deletes it
  std::vector<OrdinalTuple> inserted;  // φ-sorted tuples writers insert
  std::vector<OrdinalTuple> final_set;  // initial − deleted + inserted
};

// The relation a workload serves: the 5-attribute shape avqdb_server
// --synthetic serves, or the paper's 16-attribute §5.2 relation.
enum class Relation { kServed5, kPaper16 };

// Builds the base relation and the writer scripts for `relation`:
// `write_batches` batches of 1 to `max_batch_ops` ops each.
Inputs MakeInputs(Relation relation, size_t num_tuples, size_t write_batches,
                  size_t max_batch_ops, uint64_t seed);

// Read pools. Each fills inputs->reads with `count` requests and their
// expected answers.
void MakeLookupPool(Inputs* inputs, size_t count, uint64_t seed);
void MakeScanPool(Inputs* inputs, size_t count, uint64_t seed);
void MakeMixedPool(Inputs* inputs, size_t count, uint64_t seed);

// Checks one served answer against the model. `concurrent_writes` relaxes
// exactness to the untouched tuples: every returned tuple must be one of
// the initial or inserted tuples, and the untouched ones must match the
// expected answer exactly. Returns an empty string when the answer is
// right, else what is wrong.
std::string CheckAnswer(const Inputs& inputs, const ReadRequest& request,
                        const std::vector<OrdinalTuple>& rows,
                        bool concurrent_writes);

}  // namespace perfbench

#endif  // AVQDB_PERFBENCH_MODEL_H_
