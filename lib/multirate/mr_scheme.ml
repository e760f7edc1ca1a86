open Arnet_topology
open Arnet_paths
open Arnet_traffic

let bandwidth_loads routes workload =
  let g = Route_table.graph routes in
  let loads = Array.make (Graph.link_count g) 0. in
  Array.iteri
    (fun ci matrix ->
      let b =
        float_of_int workload.Mr_trace.classes.(ci).Call_class.bandwidth
      in
      Matrix.iter_demands matrix (fun src dst d ->
          if Route_table.has_route routes ~src ~dst then
            List.iter
              (fun k -> loads.(k) <- loads.(k) +. (b *. d))
              (Path.link_ids (Route_table.primary routes ~src ~dst))))
    workload.Mr_trace.demands;
  loads

let capacities_of routes =
  let g = Route_table.graph routes in
  Array.map (fun (l : Link.t) -> l.capacity) (Graph.links g)

let protection_levels routes workload ~h =
  let capacities = capacities_of routes in
  let loads = bandwidth_loads routes workload in
  Arnet_core.Protection.levels_of_loads ~capacities ~loads ~h

let path_fits ~capacities ~occupancy ~headroom p bandwidth =
  let ids = p.Path.link_ids in
  let n = Array.length ids in
  let rec go i =
    i >= n
    ||
    let k = ids.(i) in
    occupancy.(k) + bandwidth <= capacities.(k) - headroom.(k) && go (i + 1)
  in
  go 0

let make_policy ~name ~allow_alternates ~reserves routes workload =
  let capacities = capacities_of routes in
  let zero = Array.make (Array.length capacities) 0 in
  let decide ~occupancy ~(call : Mr_trace.call) =
    let src = call.Mr_trace.src and dst = call.Mr_trace.dst in
    if not (Route_table.has_route routes ~src ~dst) then Mr_engine.Lost
    else begin
      let bandwidth =
        workload.Mr_trace.classes.(call.Mr_trace.class_index)
          .Call_class.bandwidth
      in
      let primary = Route_table.primary routes ~src ~dst in
      if path_fits ~capacities ~occupancy ~headroom:zero primary bandwidth
      then Mr_engine.Routed primary
      else if not allow_alternates then Mr_engine.Lost
      else begin
        let fits p =
          path_fits ~capacities ~occupancy ~headroom:reserves p bandwidth
        in
        match
          List.find_opt fits
            (Route_table.alternates_excluding routes ~src ~dst primary)
        with
        | Some p -> Mr_engine.Routed p
        | None -> Mr_engine.Lost
      end
    end
  in
  { Mr_engine.name; decide }

let single_path routes workload =
  let reserves = Array.make (Array.length (capacities_of routes)) 0 in
  make_policy ~name:"mr-single-path" ~allow_alternates:false ~reserves routes
    workload

let uncontrolled routes workload =
  let reserves = Array.make (Array.length (capacities_of routes)) 0 in
  make_policy ~name:"mr-uncontrolled" ~allow_alternates:true ~reserves routes
    workload

let controlled ~reserves routes workload =
  let capacities = capacities_of routes in
  if Array.length reserves <> Array.length capacities then
    invalid_arg "Mr_scheme.controlled: reserves length mismatch";
  Array.iteri
    (fun k r ->
      if r < 0 || r > capacities.(k) then
        invalid_arg "Mr_scheme.controlled: reserve out of range")
    reserves;
  make_policy ~name:"mr-controlled" ~allow_alternates:true ~reserves routes
    workload

let controlled_auto ?h routes workload =
  let h = match h with None -> Route_table.h routes | Some h -> h in
  controlled ~reserves:(protection_levels routes workload ~h) routes workload
