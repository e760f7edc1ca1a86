(** Replayable call traces.

    The paper runs every routing algorithm against *identical call
    arrivals and call holding times* (Section 4).  We realize that by
    generating the workload once per seed — arrival instants from an
    aggregated Poisson process over the traffic matrix, exponential
    holding times, and one pre-drawn uniform variate per call for any
    randomized routing decision (e.g. bifurcated primaries) — and
    replaying the same trace through each scheme. *)

open Arnet_traffic

type arrival = {
  time : float;  (** arrival instant *)
  src : int;
  dst : int;
  holding : float;  (** holding time *)
  u : float;  (** uniform variate in [\[0,1)] *)
}
(** One explicit arrival: the input of {!of_calls} only.  A trace keeps
    none of these, just their columns. *)

type t = private {
  times : float array;  (** arrival instants, sorted ascending *)
  srcs : int array;  (** source node of call [i] *)
  dsts : int array;  (** destination node of call [i] *)
  holdings : float array;  (** exponential holding time of call [i] *)
  us : float array;
      (** uniform variate in [\[0,1)] reserved for routing choices *)
  ends : float array;  (** departure deadlines [times.(i) +. holdings.(i)] *)
  duration : float;
  matrix : Matrix.t;  (** the demands that generated it *)
}
(** A trace is a set of packed columns, one entry per call, indexed by
    arrival order: the only copy of the workload.  The float columns
    are unboxed, so the engine's inner loop compares times and queues
    departures ({!Event_queue.push_at} on [ends]) without boxing a
    single float.  Treat the arrays as read-only. *)

type call = private {
  mutable src : int;
  mutable dst : int;
  mutable index : int;  (** the call's position in [trace] *)
  trace : t;
}
(** The call a policy is asked to route: a cursor over [trace]'s
    columns, not a stored record.  A replay makes one cursor per run
    and {!seek}s it from one arrival to the next, so handing the
    current call to [decide]/[is_primary]/[primary_of] allocates
    nothing.

    The contract that follows: a [call] is valid only during the
    callback that receives it.  Never retain one — in a table, a
    closure or a queue — since the engine moves it on to the next
    arrival as soon as the callback returns.  Copy the fields you need
    (or keep [index] together with the trace) instead. *)

val cursor : t -> call
(** A fresh cursor at call 0 (on an empty trace its fields hold
    zeros). *)

val seek : call -> int -> unit
(** [seek c i] moves [c] to call [i] of its trace. *)

val time : call -> float
(** Arrival instant of the current call.  Like {!holding} and {!u}, it
    returns a boxed float wherever the call is not inlined (two minor
    words); a per-call path that must not allocate reads the column,
    [call.trace.times.(call.index)], instead. *)

val holding : call -> float
(** Holding time of the current call. *)

val u : call -> float
(** Uniform variate in [\[0,1)] reserved for the current call's routing
    choices. *)

val generate :
  ?mean_holding:float -> rng:Rng.t -> duration:float -> Matrix.t -> t
(** [generate ~rng ~duration matrix] draws the Poisson workload for
    [duration] time units.  Pairs arrive with rate [T(i,j)]
    (unit-mean holding times by default, so demand in Erlangs equals
    arrival rate).
    @raise Invalid_argument when the matrix has no positive demand,
    [duration <= 0], or [mean_holding <= 0]. *)

val of_calls : matrix:Matrix.t -> duration:float -> arrival list -> t
(** Build a trace from explicit arrivals — deterministic workloads for
    tests and replaying externally captured arrival logs.  Arrivals
    must be sorted by time, lie in [\[0, duration)], have positive
    holding times, [u] in [\[0, 1)] and valid distinct endpoints for
    the matrix's node count.
    @raise Invalid_argument otherwise. *)

val shift : t -> float -> t
(** [shift t dt] delays every call by [dt >= 0] and extends the duration
    accordingly — for building staged workloads (e.g. a surge that
    starts mid-run).
    @raise Invalid_argument when [dt < 0]. *)

val merge : t -> t -> t
(** Superpose two traces (merge by arrival time; at equal instants
    [a]'s calls come first).  The result's duration is the later of the
    two and its matrix the sum — the superposition of independent
    Poisson processes is Poisson at the summed rate, so a merged trace
    is statistically a workload of the summed matrix wherever both
    components are active.  Node counts must agree. *)

val call_count : t -> int

val offered_between : t -> float -> float -> int
(** Calls arriving in the half-open window [\[lo, hi)]. *)

val check_sorted : t -> bool
(** Invariant check used by tests. *)
