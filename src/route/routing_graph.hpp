// The weighted graph model of the fabric used for routing (paper §IV.B,
// Fig. 5.c — the "enhanced" model).
//
// Every junction or channel cell that supports horizontal travel gets a
// horizontal vertex; likewise for vertical travel. The two vertices of one
// cell are linked by a *turn edge* whose (large) cost makes the router prefer
// straight paths — the paper's key routing improvement over QUALE/QPOS.
// Traps are their own vertices, linked to the adjacent channel cells through
// move edges along the port axis (entering or leaving a trap from a
// perpendicular channel therefore costs a turn, charged at the port cell).
//
// Edge weights are evaluated at query time against the current congestion
// state (Eq. 2); this class only stores the static structure.
//
// Storage is CSR (compressed sparse row): one contiguous edge array indexed
// by a per-node offset table, so the inner routing loops walk adjacency
// lists without pointer-chasing per node. `edges()` hands out a lightweight
// span view over the node's slice of the shared edge array.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/geometry.hpp"
#include "common/ids.hpp"
#include "fabric/fabric.hpp"

namespace qspr {

struct RouteNode {
  Position cell;
  /// Travel orientation for channel/junction vertices; meaningless for traps.
  Orientation orientation = Orientation::Horizontal;
  bool is_trap = false;
  /// Segment of the cell (valid iff the cell is a channel square).
  SegmentId segment;
  /// Junction at the cell (valid iff the cell is a junction square).
  JunctionId junction;
  /// Trap identity (valid iff is_trap).
  TrapId trap;
};

struct RouteEdge {
  RouteNodeId to;
  bool is_turn = false;
};

/// Non-owning view of one node's adjacency slice inside the CSR edge array.
class EdgeSpan {
 public:
  constexpr EdgeSpan() = default;
  constexpr EdgeSpan(const RouteEdge* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] constexpr const RouteEdge* begin() const { return data_; }
  [[nodiscard]] constexpr const RouteEdge* end() const { return data_ + size_; }
  [[nodiscard]] constexpr std::size_t size() const { return size_; }
  [[nodiscard]] constexpr bool empty() const { return size_ == 0; }
  constexpr const RouteEdge& operator[](std::size_t i) const {
    return data_[i];
  }

 private:
  const RouteEdge* data_ = nullptr;
  std::size_t size_ = 0;
};

class RoutingGraph {
 public:
  explicit RoutingGraph(const Fabric& fabric);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  /// Number of directed edges in the CSR array (twice the undirected count).
  [[nodiscard]] std::size_t edge_count() const { return edge_storage_.size(); }
  [[nodiscard]] const RouteNode& node(RouteNodeId id) const {
    require(id.is_valid() && id.index() < nodes_.size(),
            "route node id out of range");
    return nodes_[id.index()];
  }

  /// Outgoing edges of `id` (the graph is symmetric).
  [[nodiscard]] EdgeSpan edges(RouteNodeId id) const {
    require(id.is_valid() && id.index() < nodes_.size(),
            "route node id out of range");
    const std::uint32_t begin = edge_offsets_[id.index()];
    const std::uint32_t end = edge_offsets_[id.index() + 1];
    return EdgeSpan(edge_storage_.data() + begin, end - begin);
  }

  /// Prefetches `id`'s CSR adjacency slice. Search loops call this one pop
  /// ahead (on the frontier's next likely node) so the edge walk finds its
  /// lines already in flight; a miss costs nothing but the hint.
  void prefetch_edges(RouteNodeId id) const {
#if defined(__GNUC__) || defined(__clang__)
    if (id.is_valid() && id.index() < nodes_.size()) {
      __builtin_prefetch(edge_storage_.data() + edge_offsets_[id.index()]);
    }
#else
    (void)id;
#endif
  }

  /// Vertex for travelling through `cell` with orientation `o`; invalid when
  /// the cell does not support that orientation.
  [[nodiscard]] RouteNodeId node_at(Position cell, Orientation o) const;

  /// Vertex of trap `trap`.
  [[nodiscard]] RouteNodeId trap_node(TrapId trap) const;

  [[nodiscard]] const Fabric& fabric() const { return *fabric_; }

 private:
  /// An undirected edge gathered during construction, before CSR packing.
  struct EdgeRecord {
    RouteNodeId a;
    RouteNodeId b;
    bool is_turn;
  };

  void create_nodes();
  void create_edges();
  void pack_edges(const std::vector<EdgeRecord>& records);

  [[nodiscard]] std::size_t cell_slot(Position p, Orientation o) const {
    const auto cell = static_cast<std::size_t>(p.row) *
                          static_cast<std::size_t>(fabric_->cols()) +
                      static_cast<std::size_t>(p.col);
    return cell * 2 + (o == Orientation::Vertical ? 1 : 0);
  }

  const Fabric* fabric_;
  std::vector<RouteNode> nodes_;
  // CSR adjacency: node i's edges live at
  // edge_storage_[edge_offsets_[i] .. edge_offsets_[i + 1]).
  std::vector<RouteEdge> edge_storage_;
  std::vector<std::uint32_t> edge_offsets_;
  std::vector<std::int32_t> node_by_cell_orientation_;  // -1 when absent
  std::vector<RouteNodeId> node_by_trap_;
};

}  // namespace qspr
