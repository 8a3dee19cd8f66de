#include "graphdb/graphdb.hpp"

#include "common/error.hpp"

namespace mssg {

bool GraphDB::metadata_matches(Metadata lhs, Metadata rhs, MetadataOp op) {
  switch (op) {
    case MetadataOp::kAll:
      return true;
    case MetadataOp::kNotEqual:
      return lhs != rhs;
    case MetadataOp::kEqual:
      return lhs == rhs;
    case MetadataOp::kGreater:
      return lhs > rhs;
    case MetadataOp::kLess:
      return lhs < rhs;
  }
  throw UsageError("unknown MetadataOp");
}

void GraphDB::visit_adjacency(std::span<const VertexId> vertices,
                              const AdjacencyVisitor& fn) {
  std::vector<VertexId> neighbors;
  for (const VertexId v : vertices) {
    neighbors.clear();
    get_adjacency(v, neighbors);
    if (!fn(v, neighbors)) return;
  }
}

void GraphDB::get_adjacency_using_metadata(VertexId v,
                                           std::vector<VertexId>& out,
                                           Metadata metadata, MetadataOp op) {
  if (op == MetadataOp::kAll) {
    get_adjacency(v, out);
    return;
  }
  std::vector<VertexId> all;
  get_adjacency(v, all);
  for (const VertexId u : all) {
    if (metadata_matches(get_metadata(u), metadata, op)) out.push_back(u);
  }
}

Metadata GraphDB::get_metadata(VertexId v) { return metadata_->get(v); }

void GraphDB::set_metadata(VertexId v, Metadata metadata) {
  metadata_->set(v, metadata);
}

void GraphDB::clear_metadata(Metadata fill) { metadata_->clear(fill); }

void GraphDB::publish_metrics(MetricsSnapshot& snap) const {
  publish_io(io_stats(), snap);
}

std::string to_string(Backend backend) {
  switch (backend) {
    case Backend::kArray:
      return "Array";
    case Backend::kHashMap:
      return "HashMap";
    case Backend::kRelational:
      return "Relational(MySQL)";
    case Backend::kKVStore:
      return "KVStore(BerkeleyDB)";
    case Backend::kStream:
      return "StreamDB";
    case Backend::kGrDB:
      return "grDB";
  }
  throw UsageError("unknown Backend");
}

}  // namespace mssg
