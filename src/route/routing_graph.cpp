#include "route/routing_graph.hpp"

#include "common/error.hpp"

namespace qspr {

namespace {

bool supports_travel(CellType type) {
  return type == CellType::Channel || type == CellType::Junction;
}

}  // namespace

RoutingGraph::RoutingGraph(const Fabric& fabric) : fabric_(&fabric) {
  node_by_cell_orientation_.assign(
      static_cast<std::size_t>(fabric.rows()) *
          static_cast<std::size_t>(fabric.cols()) * 2,
      -1);
  node_by_trap_.assign(fabric.trap_count(), RouteNodeId::invalid());
  create_nodes();
  create_edges();
}

void RoutingGraph::create_nodes() {
  const Fabric& fabric = *fabric_;
  for (int row = 0; row < fabric.rows(); ++row) {
    for (int col = 0; col < fabric.cols(); ++col) {
      const Position p{row, col};
      const CellType type = fabric.cell(p);
      if (type == CellType::Trap) {
        RouteNode node;
        node.cell = p;
        node.is_trap = true;
        node.trap = fabric.trap_at(p);
        node_by_trap_[node.trap.index()] = RouteNodeId::from_index(nodes_.size());
        nodes_.push_back(node);
        continue;
      }
      if (!supports_travel(type)) continue;
      // A travel vertex exists for orientation o when the cell connects to
      // anything (channel, junction or trap) along o's axis.
      for (const Orientation o : kAllOrientations) {
        const Direction forward =
            o == Orientation::Horizontal ? Direction::East : Direction::South;
        const Position next = step(p, forward);
        const Position prev = step(p, opposite(forward));
        const bool connects =
            fabric.cell(next) != CellType::Empty ||
            fabric.cell(prev) != CellType::Empty;
        if (!connects) continue;
        RouteNode node;
        node.cell = p;
        node.orientation = o;
        node.segment = fabric.segment_at(p);
        node.junction = fabric.junction_at(p);
        node_by_cell_orientation_[cell_slot(p, o)] =
            static_cast<std::int32_t>(nodes_.size());
        nodes_.push_back(node);
      }
    }
  }
}

void RoutingGraph::create_edges() {
  const Fabric& fabric = *fabric_;
  std::vector<EdgeRecord> records;
  const auto add_edge = [&records](RouteNodeId a, RouteNodeId b,
                                   bool is_turn) {
    records.push_back(EdgeRecord{a, b, is_turn});
  };
  // Turn edges: both orientation vertices of the same cell.
  for (int row = 0; row < fabric.rows(); ++row) {
    for (int col = 0; col < fabric.cols(); ++col) {
      const Position p{row, col};
      const RouteNodeId h = node_at(p, Orientation::Horizontal);
      const RouteNodeId v = node_at(p, Orientation::Vertical);
      if (h.is_valid() && v.is_valid()) add_edge(h, v, /*is_turn=*/true);
    }
  }
  // Move edges between adjacent travel cells, along the shared axis. Only
  // East/South scanned; each record packs into both directions.
  for (int row = 0; row < fabric.rows(); ++row) {
    for (int col = 0; col < fabric.cols(); ++col) {
      const Position p{row, col};
      if (!supports_travel(fabric.cell(p))) continue;
      for (const Direction d : {Direction::East, Direction::South}) {
        const Position q = step(p, d);
        if (!supports_travel(fabric.cell(q))) continue;
        const Orientation o = axis_of(d);
        const RouteNodeId a = node_at(p, o);
        const RouteNodeId b = node_at(q, o);
        require(a.is_valid() && b.is_valid(),
                "adjacent travel cells missing orientation vertices");
        add_edge(a, b, /*is_turn=*/false);
      }
    }
  }
  // Trap access edges along each port's axis.
  for (const Trap& trap : fabric.traps()) {
    const RouteNodeId t = trap_node(trap.id);
    for (const TrapPort& port : trap.ports) {
      const Orientation o = axis_of(port.direction_from_trap);
      const RouteNodeId c = node_at(port.channel_cell, o);
      require(c.is_valid(), "trap port cell missing orientation vertex");
      add_edge(t, c, /*is_turn=*/false);
    }
  }
  pack_edges(records);
}

void RoutingGraph::pack_edges(const std::vector<EdgeRecord>& records) {
  // Two-pass CSR build. Scatter order matches the legacy per-node push_back
  // order (record order, forward direction before reverse), so adjacency
  // iteration order — and therefore every deterministic search tie-break —
  // is unchanged by the layout switch.
  const std::size_t n = nodes_.size();
  edge_offsets_.assign(n + 1, 0);
  for (const EdgeRecord& r : records) {
    ++edge_offsets_[r.a.index() + 1];
    ++edge_offsets_[r.b.index() + 1];
  }
  for (std::size_t i = 0; i < n; ++i) edge_offsets_[i + 1] += edge_offsets_[i];

  edge_storage_.resize(records.size() * 2);
  std::vector<std::uint32_t> cursor(edge_offsets_.begin(),
                                    edge_offsets_.end() - 1);
  for (const EdgeRecord& r : records) {
    edge_storage_[cursor[r.a.index()]++] = RouteEdge{r.b, r.is_turn};
    edge_storage_[cursor[r.b.index()]++] = RouteEdge{r.a, r.is_turn};
  }
}

RouteNodeId RoutingGraph::node_at(Position cell, Orientation o) const {
  if (!fabric_->in_bounds(cell)) return RouteNodeId::invalid();
  const std::int32_t index = node_by_cell_orientation_[cell_slot(cell, o)];
  return index < 0 ? RouteNodeId::invalid() : RouteNodeId(index);
}

RouteNodeId RoutingGraph::trap_node(TrapId trap) const {
  require(trap.is_valid() && trap.index() < node_by_trap_.size(),
          "trap id out of range");
  return node_by_trap_[trap.index()];
}

}  // namespace qspr
