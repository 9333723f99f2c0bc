(* The benchmark's report arithmetic, kept apart from the timing code so
   the tests can pin it on small fixed inputs. *)

type percentile = {
  pc_value : float;
  pc_samples : int;  (* the sample count the percentile was read from *)
  pc_beyond : int;  (* samples strictly above the chosen rank *)
}

(* Nearest rank: the smallest sample with at least [q] of the samples at
   or below it, i.e. rank [ceil (q * n)] counted from 1. *)
let percentile samples q =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  if q <= 0.0 || q > 1.0 then invalid_arg "Stats.percentile: q outside (0,1]";
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let rank = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n)))) in
  { pc_value = sorted.(rank - 1); pc_samples = n; pc_beyond = n - rank }

let median = function
  | [] -> invalid_arg "Stats.median: empty"
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let per_request total ~requests =
  if requests <= 0 then invalid_arg "Stats.per_request: no requests";
  total /. float_of_int requests

(* A time measured on a host whose reference loop took [reference] ns,
   restated for a host where it takes [nominal] ns. *)
let scaled t ~reference ~nominal =
  if reference <= 0.0 then invalid_arg "Stats.scaled: reference time <= 0";
  t *. nominal /. reference

let failure_ratio ~failed ~attempted =
  if attempted <= 0 then invalid_arg "Stats.failure_ratio: nothing attempted";
  if failed < 0 || failed > attempted then
    invalid_arg "Stats.failure_ratio: failed outside [0, attempted]";
  float_of_int failed /. float_of_int attempted

(* Length of the union of [(start, stop)] intervals inside [lo, hi].
   Nested and overlapping intervals count once. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* A span's self time: its duration minus the part of its interval that
   the given child spans cover. *)
let self_time (sp : Gp_telemetry.Trace.span) children =
  let lo = sp.sp_start_ns in
  let hi = lo +. sp.sp_dur_ns in
  sp.sp_dur_ns
  -. covered ~lo ~hi
       (List.map
          (fun (c : Gp_telemetry.Trace.span) ->
            (c.sp_start_ns, c.sp_start_ns +. c.sp_dur_ns))
          children)
