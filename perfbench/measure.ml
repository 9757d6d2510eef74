(* Pure metric arithmetic for the benchmark: medians, the percentile rule,
   span self time, and pool efficiency.  No I/O and no engine calls, so
   the self-test can pin every rule down on synthetic inputs. *)

let median = function
  | [] -> invalid_arg "Measure.median: no samples"
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest rank (1-based) of the [p] quantile among [n] samples.  The
   epsilon keeps [0.99 *. 1000.] from rounding up past 990. *)
let rank ~p n = max 1 (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)))

(* The percentile rule: a percentile is reported only when at least ten
   samples lie beyond it, so p50 needs 20 samples and p99 needs 1000. *)
let min_beyond = 10

let reportable ~p n = n > 0 && n - rank ~p n >= min_beyond

let percentile ~p xs =
  let n = List.length xs in
  if not (reportable ~p n) then None
  else begin
    let a = Array.of_list xs in
    Array.sort compare a;
    Some a.(rank ~p n - 1)
  end

(* Operation latency as a workload reports it end to end: the rule's
   percentile when the run has enough operations, otherwise the nearest
   rank (the maximum, for p99 below 1000 samples).  Workloads with a
   handful of large operations state their sample count next to it. *)
let latency ~p xs =
  match percentile ~p xs with
  | Some v -> v
  | None ->
      let a = Array.of_list xs in
      Array.sort compare a;
      a.(min (Array.length a - 1) (rank ~p (Array.length a) - 1))

(* Splits timestamped samples [(t, v)] into [count] consecutive windows of
   [width] seconds from [start]; samples outside them are dropped.  A
   median over windows keeps one disturbed second of a shared machine
   from moving a whole run's figure. *)
let windows ~start ~width ~count samples =
  let buckets = Array.make count [] in
  List.iter
    (fun (t, v) ->
      let k = int_of_float (Float.floor ((t -. start) /. width)) in
      if k >= 0 && k < count then buckets.(k) <- v :: buckets.(k))
    samples;
  Array.to_list buckets

(* {1 Span self time}

   A span's self time is its duration minus the part of that interval its
   child spans cover.  Events arrive as one stream merged across domains
   with each domain's own order preserved, so a stack per domain rebuilds
   the nesting.  [covered] is, per domain, the total duration of its root
   spans — the wall time some span accounts for.  [inclusive] is a name's
   whole duration, counting a span nested in one of the same name once. *)

type frame = { f_name : string; f_start : float; mutable f_children : float }

type self_times = {
  self : (string * float) list;  (** span name -> summed self time, sorted *)
  inclusive : (string * float) list;  (** span name -> summed duration *)
  covered : (int * float) list;  (** domain -> summed root-span duration *)
}

let self_times (events : Obs.event list) =
  let stacks : (int, frame list) Hashtbl.t = Hashtbl.create 8 in
  let self : (string, float) Hashtbl.t = Hashtbl.create 32 in
  let inclusive : (string, float) Hashtbl.t = Hashtbl.create 32 in
  let covered : (int, float) Hashtbl.t = Hashtbl.create 8 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.0)
  in
  List.iter
    (fun (e : Obs.event) ->
      let stack = Option.value (Hashtbl.find_opt stacks e.Obs.dom) ~default:[] in
      match e.Obs.ph with
      | Obs.Instant -> ()
      | Obs.Begin ->
          Hashtbl.replace stacks e.Obs.dom
            ({ f_name = e.Obs.name; f_start = e.Obs.ts; f_children = 0.0 } :: stack)
      | Obs.End -> (
          match stack with
          | [] -> ()
          | top :: rest ->
              let dur = e.Obs.ts -. top.f_start in
              add self top.f_name (dur -. top.f_children);
              if not (List.exists (fun f -> f.f_name = top.f_name) rest) then
                add inclusive top.f_name dur;
              (match rest with
              | parent :: _ -> parent.f_children <- parent.f_children +. dur
              | [] -> add covered e.Obs.dom dur);
              Hashtbl.replace stacks e.Obs.dom rest))
    events;
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  { self = sorted self; inclusive = sorted inclusive; covered = sorted covered }

(* Summed over [names]; [None] when no span of those names was recorded. *)
let sum_of table names =
  match List.filter_map (fun n -> List.assoc_opt n table) names with
  | [] -> None
  | vs -> Some (List.fold_left ( +. ) 0.0 vs)

let self_of t names = sum_of t.self names
let inclusive_of t names = sum_of t.inclusive names

(* Wall time no span accounts for, summed over the domains that recorded
   spans: each such domain was available for the whole [wall]. *)
let unattributed t ~wall =
  List.fold_left (fun acc (_, c) -> acc +. (wall -. c)) 0.0 t.covered

(* Share of the workers' available time the process spent on a CPU. *)
let pool_efficiency ~cpu ~workers ~wall = cpu /. (float_of_int workers *. wall)
