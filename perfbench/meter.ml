(* Timing primitives shared by every workload: the calibration kernel,
   reference-second normalisation, order statistics and heap probes. *)

(* seconds on the monotonic clock, at nanosecond resolution: loopback
   round trips are tens of microseconds, too close to gettimeofday's
   microsecond grain *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* ------------------------------------------------------------------ *)
(* calibration *)

(* A fixed CPU-bound task: an in-place heap sort ([Array.sort]) of
   300k pseudo-random ints, Stdlib only, allocating nothing so no
   collector work lands inside it.  Host CPU speed on a shared virtual
   machine drifts by 10% and more within seconds; dividing a slice's
   wall time by the kernel time measured right next to it cancels most
   of that drift. *)
let kernel_input =
  lazy
    (let s = ref 0x2545F491 in
     Array.init 300_000 (fun _ ->
         s := ((!s * 1103515245) + 12345) land 0x3fffffff;
         !s))

let kernel_scratch = lazy (Array.make 300_000 0)

let kernel () =
  let input = Lazy.force kernel_input and a = Lazy.force kernel_scratch in
  let t0 = now () in
  Array.blit input 0 a 0 (Array.length a);
  Array.sort (fun (x : int) y -> compare x y) a;
  now () -. t0

(* The kernel's frozen nominal time, the unit of every normalised
   metric: a time in reference seconds is the wall time it would have
   taken on a host where [kernel ()] takes exactly this long (about what
   it takes on a 2-core x86-64 VM).  Changing it rescales every
   recorded normalised figure, so it never changes. *)
let nominal_kernel_s = 0.08

type slice = {
  wall : float;  (** seconds of wall time *)
  calib : float;  (** kernel seconds measured beside the slice *)
  work : int;  (** units of work done (calls, changes, commands) *)
}

(* [slices ~budget ~min f] runs [f i] for i = 0, 1, ... until [budget]
   seconds have passed and at least [min] slices exist.  Each slice
   starts on a compacted heap and sits between two kernel runs; its
   [calib] is their mean.  [f] returns the work it did; [prepare i]
   runs untimed before slice [i]'s compaction.  The count stops at a multiple of [round], so slices
   cycling over [round] different inputs cover each equally often. *)
let slices ?(prepare = ignore) ?(round = 1) ~budget ~min f =
  let deadline = now () +. budget in
  let before = ref (kernel ()) in
  let rec go i acc =
    if i >= min && i mod round = 0 && now () >= deadline then List.rev acc
    else begin
      prepare i;
      Gc.compact ();
      let t0 = now () in
      let work = f i in
      let wall = now () -. t0 in
      let after = kernel () in
      let s = { wall; calib = (!before +. after) /. 2.; work } in
      before := after;
      go (i + 1) (s :: acc)
    end
  in
  go 0 []

(* [setups ~reps f] runs the set-up [f] [reps] times, each on a heap
   compacted after the previous result was dropped, bracketed by kernel
   runs.  Returns the last result and one slice per set-up. *)
let setups ~reps f =
  let last = ref None in
  let before = ref (kernel ()) in
  let samples = ref [] in
  for _ = 1 to reps do
    last := None;
    Gc.compact ();
    let v, wall = time f in
    last := Some v;
    let after = kernel () in
    samples := { wall; calib = (!before +. after) /. 2.; work = 1 } :: !samples;
    before := after
  done;
  match !last with
  | Some v -> (v, List.rev !samples)
  | None -> invalid_arg "Meter.setups: reps < 1"

(* ------------------------------------------------------------------ *)
(* order statistics *)

(* linear interpolation between closest ranks on a sorted copy *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let a = Array.copy xs in
    Array.sort Float.compare a;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median xs = quantile xs 0.5
let median_by f l = median (Array.of_list (List.map f l))

(* Per-slice rates and per-unit times, raw and normalised.  Host speed
   also swings faster than a slice, and those swings are uncorrelated
   between a slice and the kernel beside it, so a normalised figure is
   the raw median scaled by the median kernel time of the same slices,
   not a median of per-slice ratios, which would add the kernel's own
   noise to every slice. *)
let rate_raw l = median_by (fun s -> float_of_int s.work /. s.wall) l
let per_unit_raw l = median_by (fun s -> s.wall /. float_of_int s.work) l
let calib_median l = median_by (fun s -> s.calib) l
let rate_ref l = rate_raw l *. calib_median l /. nominal_kernel_s
let per_unit_ref l = per_unit_raw l *. nominal_kernel_s /. calib_median l

(* ------------------------------------------------------------------ *)
(* heap and process probes *)

(* words allocated so far by this domain, minor and major *)
let allocated_words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

let live_words () =
  Gc.compact ();
  (Gc.stat ()).Gc.live_words

let mib_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1048576.

(* the process's high-water resident set (VmHWM) in MiB *)
let peak_rss_mb () =
  let status = In_channel.with_open_text "/proc/self/status" In_channel.input_all in
  let line =
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  match line with
  | None -> nan
  | Some l -> (
    match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
    | Some kb -> float_of_int kb /. 1024.
    | None -> nan)
