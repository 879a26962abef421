(* Substrate aliases opened by every module in this library. *)

module Node = Routing_topology.Node
module Link = Routing_topology.Link
module Graph = Routing_topology.Graph
module Metric = Routing_metric.Metric
