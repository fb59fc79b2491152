#include "perfbench/src/model.h"

#include <algorithm>
#include <set>
#include <utility>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/workload/distributions.h"
#include "src/workload/generator.h"

namespace perfbench {
namespace {

using avqdb::CompareTuples;
using avqdb::Random;

bool TupleLess(const OrdinalTuple& a, const OrdinalTuple& b) {
  return CompareTuples(a, b) < 0;
}

bool Contains(const std::vector<OrdinalTuple>& sorted,
              const OrdinalTuple& tuple) {
  return std::binary_search(sorted.begin(), sorted.end(), tuple, TupleLess);
}

uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

avqdb::ConjunctiveQuery Equality(const OrdinalTuple& key, size_t attrs) {
  avqdb::ConjunctiveQuery query;
  for (size_t i = 0; i < attrs; ++i) {
    query.predicates.push_back(avqdb::RangeQuery{i, key[i], key[i]});
  }
  return query;
}

// A tuple drawn uniformly from the schema's domains.
OrdinalTuple RandomTuple(const std::vector<uint64_t>& radices, Random& rng) {
  OrdinalTuple t(radices.size());
  for (size_t i = 0; i < radices.size(); ++i) t[i] = rng.Uniform(radices[i]);
  return t;
}

}  // namespace

uint64_t TupleHash(const OrdinalTuple& tuple) {
  uint64_t h = 0x243f6a8885a308d3ull;
  for (uint64_t digit : tuple) h = Mix(h + digit);
  return h;
}

Inputs MakeInputs(Relation relation, size_t num_tuples, size_t write_batches,
                  size_t max_batch_ops, uint64_t seed) {
  avqdb::RelationSpec spec;
  Inputs in;
  if (relation == Relation::kServed5) {
    // The shape avqdb_server --synthetic serves.
    spec.num_attributes = 5;
    spec.explicit_domain_sizes = {8, 16, 64, 64, 64};
    spec.num_tuples = num_tuples;
    spec.seed = seed;
  } else {
    spec = avqdb::PaperQueryRelationSpec(num_tuples, seed);
    // Non-leading attributes of small and medium domains. (An index on
    // the unique last attribute takes seconds to build and would dominate
    // set-up.)
    in.secondary_attrs = {4, 8, 13};
  }
  auto rel = avqdb::GenerateRelation(spec);
  AVQDB_CHECK(rel.ok(), "generate: %s", rel.status().ToString().c_str());
  in.schema = rel->schema;
  in.tuples = std::move(rel->tuples);
  std::sort(in.tuples.begin(), in.tuples.end(), TupleLess);
  in.tuples.erase(std::unique(in.tuples.begin(), in.tuples.end()),
                  in.tuples.end());

  // Writer scripts: each op is an insert of a fresh tuple or a delete of
  // an initial tuple no other op touches. Half the ops are inserts, and
  // both kinds are spread evenly over the table (one op per stratum of
  // the φ order, strata visited in seeded random order), so every run's
  // script touches each block about equally often and the cost of
  // applying and replaying it does not swing with the seed.
  const std::vector<uint64_t>& radices = in.schema->radices();
  const size_t arity = radices.size();
  const size_t n = in.tuples.size();
  Random rng(seed * 0x9e3779b97f4a7c15ull + 17);
  std::vector<size_t> batch_ops(write_batches);
  size_t total_ops = 0;
  for (size_t& ops : batch_ops) {
    ops = 1 + rng.Uniform(max_batch_ops);
    total_ops += ops;
  }
  const auto stratified = [&](size_t count) {
    std::vector<size_t> picks(count);
    for (size_t j = 0; j < count; ++j) {
      const size_t lo = j * n / count;
      const size_t hi = (j + 1) * n / count;
      picks[j] = lo + rng.Uniform(std::max<size_t>(1, hi - lo));
    }
    for (size_t j = count; j > 1; --j) {
      std::swap(picks[j - 1], picks[rng.Uniform(j)]);
    }
    return picks;
  };
  const std::vector<size_t> deletes = stratified(total_ops / 2);
  const std::vector<size_t> insert_bases =
      stratified(total_ops - deletes.size());
  std::vector<uint8_t> is_insert(total_ops, 0);
  std::fill(is_insert.begin(), is_insert.begin() + insert_bases.size(), 1);
  for (size_t j = total_ops; j > 1; --j) {
    std::swap(is_insert[j - 1], is_insert[rng.Uniform(j)]);
  }
  in.touched.assign(n, 0);
  std::set<OrdinalTuple, decltype(&TupleLess)> fresh(&TupleLess);
  constexpr size_t kWriters = 2;
  in.writer_batches.resize(kWriters);
  size_t op = 0, next_delete = 0, next_insert = 0;
  for (size_t b = 0; b < write_batches; ++b) {
    avqdb::WriteBatch batch;
    for (size_t k = 0; k < batch_ops[b]; ++k, ++op) {
      if (is_insert[op]) {
        OrdinalTuple t;
        do {
          t = in.tuples[insert_bases[next_insert]];
          t[arity - 2] = rng.Uniform(radices[arity - 2]);
          t[arity - 1] = rng.Uniform(radices[arity - 1]);
        } while (Contains(in.tuples, t) || fresh.contains(t));
        ++next_insert;
        fresh.insert(t);
        batch.Insert(std::move(t));
      } else {
        const size_t i = deletes[next_delete++];
        in.touched[i] = 1;
        batch.Delete(in.tuples[i]);
      }
    }
    in.write_ops += batch_ops[b];
    in.write_payload_bytes += batch.EncodePayload().size();
    in.writer_batches[b % kWriters].push_back(std::move(batch));
  }
  in.inserted.assign(fresh.begin(), fresh.end());
  in.final_set.reserve(n + in.inserted.size());
  for (size_t i = 0; i < n; ++i) {
    if (!in.touched[i]) in.final_set.push_back(in.tuples[i]);
  }
  in.final_set.insert(in.final_set.end(), in.inserted.begin(),
                      in.inserted.end());
  std::sort(in.final_set.begin(), in.final_set.end(), TupleLess);
  return in;
}

void MakeLookupPool(Inputs* in, size_t count, uint64_t seed) {
  const std::vector<OrdinalTuple>& tuples = in->tuples;
  const size_t n = tuples.size();
  const size_t arity = in->schema->num_attributes();
  Random rng(seed * 0xd1b54a32d192ed03ull + 3);
  // Zipf ranks map through a seeded permutation, so hot keys scatter
  // across blocks instead of crowding the front of the table.
  avqdb::ZipfSampler zipf(n, 0.99);
  std::vector<uint32_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<uint32_t>(i);
  for (size_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng.Uniform(i)]);
  std::vector<uint64_t> prefix_hash(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    prefix_hash[i + 1] = prefix_hash[i] + TupleHash(tuples[i]);
  }
  in->reads.clear();
  in->reads.reserve(count);
  for (size_t r = 0; r < count; ++r) {
    ReadRequest req;
    // A fixed 18:1:1 pattern rather than a random draw, so every run's
    // mix of lookups, absent keys and prefix lookups is the same.
    const size_t slot = r % 20;
    const OrdinalTuple& hot = tuples[perm[zipf.Sample(rng)]];
    if (slot != 0 && slot != 10) {
      req.query = Equality(hot, arity);
      req.expect_count = 1;
      req.expect_hash = TupleHash(hot);
    } else if (slot == 0) {
      OrdinalTuple key;
      do {
        key = RandomTuple(in->schema->radices(), rng);
      } while (Contains(tuples, key) || Contains(in->inserted, key));
      req.query = Equality(key, arity);
    } else {
      req.query = Equality(hot, 2);
      OrdinalTuple lo(arity, 0), hi(arity, 0);
      lo[0] = hi[0] = hot[0];
      lo[1] = hi[1] = hot[1];
      for (size_t i = 2; i < arity; ++i) hi[i] = in->schema->radices()[i] - 1;
      const size_t b = static_cast<size_t>(
          std::lower_bound(tuples.begin(), tuples.end(), lo, TupleLess) -
          tuples.begin());
      const size_t e = static_cast<size_t>(
          std::upper_bound(tuples.begin(), tuples.end(), hi, TupleLess) -
          tuples.begin());
      req.expect_count = e - b;
      req.expect_hash = prefix_hash[e] - prefix_hash[b];
    }
    in->reads.push_back(std::move(req));
  }
}

void MakeScanPool(Inputs* in, size_t count, uint64_t seed) {
  const std::vector<OrdinalTuple>& tuples = in->tuples;
  const size_t n = tuples.size();
  const size_t arity = in->schema->num_attributes();
  Random rng(seed * 0xa0761d6478bd642full + 5);
  struct Draw {
    size_t attr;
    size_t first_rank;
    size_t width;  // tuples covered by the value range, before ties
  };
  // Balanced draws: the attributes cycle through a seeded order and the
  // selectivities through ten strata of [1%, 10%], so every run sends the
  // same mix of access paths and result sizes whatever its length.
  std::vector<size_t> order(arity);
  for (size_t i = 0; i < arity; ++i) order[i] = i;
  for (size_t i = arity; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  std::vector<Draw> draws(count);
  for (size_t r = 0; r < count; ++r) {
    Draw& d = draws[r];
    d.attr = order[r % arity];
    const double stratum = static_cast<double>((r / arity) % 10);
    const double fraction = 0.01 + 0.009 * (stratum + rng.NextDouble());
    d.width = std::max<size_t>(1, static_cast<size_t>(fraction * n));
    d.first_rank = rng.Uniform(n - d.width + 1);
  }
  in->reads.assign(count, ReadRequest{});
  // One attribute at a time: its values sorted, with prefix sums of the
  // tuple hashes, answer every range on it by two binary searches.
  std::vector<std::pair<uint64_t, uint64_t>> by_value(n);
  std::vector<uint64_t> prefix_hash(n + 1);
  for (size_t attr = 0; attr < arity; ++attr) {
    for (size_t i = 0; i < n; ++i) {
      by_value[i] = {tuples[i][attr], TupleHash(tuples[i])};
    }
    std::sort(by_value.begin(), by_value.end());
    prefix_hash[0] = 0;
    for (size_t i = 0; i < n; ++i) {
      prefix_hash[i + 1] = prefix_hash[i] + by_value[i].second;
    }
    for (size_t r = 0; r < count; ++r) {
      const Draw& d = draws[r];
      if (d.attr != attr) continue;
      const uint64_t lo = by_value[d.first_rank].first;
      const uint64_t hi = by_value[d.first_rank + d.width - 1].first;
      const auto key_less = [](const std::pair<uint64_t, uint64_t>& p,
                               uint64_t v) { return p.first < v; };
      const auto key_greater = [](uint64_t v,
                                  const std::pair<uint64_t, uint64_t>& p) {
        return v < p.first;
      };
      const size_t b = static_cast<size_t>(
          std::lower_bound(by_value.begin(), by_value.end(), lo, key_less) -
          by_value.begin());
      const size_t e = static_cast<size_t>(
          std::upper_bound(by_value.begin(), by_value.end(), hi,
                           key_greater) -
          by_value.begin());
      ReadRequest& req = in->reads[r];
      req.query.predicates.push_back(avqdb::RangeQuery{attr, lo, hi});
      req.expect_count = e - b;
      req.expect_hash = prefix_hash[e] - prefix_hash[b];
    }
  }
}

void MakeMixedPool(Inputs* in, size_t count, uint64_t seed) {
  const std::vector<OrdinalTuple>& tuples = in->tuples;
  const size_t n = tuples.size();
  const size_t arity = in->schema->num_attributes();
  const std::vector<uint64_t>& radices = in->schema->radices();
  Random rng(seed * 0xe7037ed1a0b428dbull + 7);
  in->reads.clear();
  in->reads.reserve(count);
  for (size_t r = 0; r < count; ++r) {
    ReadRequest req;
    if (r % 2 == 0) {
      // A key no writer touches: present at every snapshot.
      size_t i;
      do {
        i = rng.Uniform(n);
      } while (in->touched[i]);
      req.query = Equality(tuples[i], arity);
      req.expect_count = 1;
      req.expect_hash = TupleHash(tuples[i]);
    } else {
      // A non-key range within one leading-attribute value: the clustered
      // path walks that slice and filters it, merging the snapshot's
      // unapplied writes.
      const uint64_t lead = rng.Uniform(radices[0]);
      const uint64_t width = rng.Uniform(4);
      const uint64_t lo = rng.Uniform(radices[2] - width);
      req.query.predicates = {avqdb::RangeQuery{0, lead, lead},
                              avqdb::RangeQuery{2, lo, lo + width}};
      OrdinalTuple first(arity, 0);
      first[0] = lead;
      for (size_t i = static_cast<size_t>(
               std::lower_bound(tuples.begin(), tuples.end(), first,
                                TupleLess) -
               tuples.begin());
           i < n && tuples[i][0] == lead; ++i) {
        if (in->touched[i] || tuples[i][2] < lo || tuples[i][2] > lo + width) {
          continue;
        }
        ++req.expect_count;
        req.expect_hash += TupleHash(tuples[i]);
      }
    }
    in->reads.push_back(std::move(req));
  }
}

std::string CheckAnswer(const Inputs& in, const ReadRequest& req,
                        const std::vector<OrdinalTuple>& rows,
                        bool concurrent_writes) {
  const size_t arity = in.schema->num_attributes();
  uint64_t count = 0;
  uint64_t hash = 0;
  for (size_t r = 0; r < rows.size(); ++r) {
    const OrdinalTuple& row = rows[r];
    if (row.size() != arity) return "row of wrong arity";
    if (r > 0 && CompareTuples(rows[r - 1], row) >= 0) {
      return "rows out of phi order or duplicated";
    }
    for (const avqdb::RangeQuery& p : req.query.predicates) {
      if (row[p.attribute] < p.lo || row[p.attribute] > p.hi) {
        return "row does not match the predicate";
      }
    }
    if (concurrent_writes) {
      const auto it =
          std::lower_bound(in.tuples.begin(), in.tuples.end(), row, TupleLess);
      if (it != in.tuples.end() && *it == row) {
        if (in.touched[static_cast<size_t>(it - in.tuples.begin())]) continue;
      } else {
        if (!Contains(in.inserted, row)) return "row was never written";
        continue;
      }
    }
    ++count;
    hash += TupleHash(row);
  }
  if (count != req.expect_count || hash != req.expect_hash) {
    return "answer differs from the model: " + std::to_string(count) +
           " rows, expected " + std::to_string(req.expect_count);
  }
  return std::string();
}

}  // namespace perfbench
