(** Multi-class replayable workloads. *)

open Arnet_traffic

type workload = private {
  classes : Call_class.t array;
  demands : Matrix.t array;  (** per class, demand in *calls* (Erlangs) *)
}

val workload : (Call_class.t * Matrix.t) list -> workload
(** @raise Invalid_argument on empty input or mismatched matrix sizes. *)

val nodes : workload -> int

val offered_bandwidth : workload -> float
(** Total offered bandwidth load: [sum_c bandwidth_c * total demand_c]. *)

type arrival = {
  time : float;
  src : int;
  dst : int;
  holding : float;
  class_index : int;
  u : float;
}
(** One explicit arrival: the input of {!of_calls} only. *)

type t = private {
  times : float array;  (** arrival instants, sorted ascending *)
  srcs : int array;
  dsts : int array;
  holdings : float array;
  class_indices : int array;  (** index into the workload's classes *)
  us : float array;  (** uniform variates in [\[0,1)] *)
  ends : float array;  (** departure deadlines [times.(i) +. holdings.(i)] *)
}
(** A replayable trace, one packed column per field and one entry per
    call — the same layout as {!Arnet_sim.Trace.t}: the engine's drain
    loop and departure pushes read the float columns directly, so the
    per-call hot path never boxes a time. *)

type call = private {
  mutable src : int;
  mutable dst : int;
  mutable class_index : int;
  mutable index : int;  (** the call's position in [trace] *)
  trace : t;
}
(** The call a policy is asked to route: a cursor over [trace]'s
    columns that {!Mr_engine.run} makes once per run and {!seek}s from
    one arrival to the next.  As with {!Arnet_sim.Trace.call}, it is
    valid only during the callback that receives it and must never be
    retained. *)

val cursor : t -> call
(** A fresh cursor at call 0 (on an empty trace its fields hold
    zeros). *)

val seek : call -> int -> unit
(** [seek c i] moves [c] to call [i] of its trace. *)

val call_count : t -> int

val of_calls : arrival array -> t
(** Build a trace from hand-made arrivals (must be sorted by [time]).
    @raise Invalid_argument when out of order. *)

val generate : rng:Arnet_sim.Rng.t -> duration:float -> workload -> t
(** Superposed Poisson arrivals over classes and pairs, holding times
    exponential with each class's mean; sorted by time.
    @raise Invalid_argument when total demand is zero. *)
