(* Tracing and metrics core.  See the interface for the contract.

   Layout mirrors {!Fault}: the whole recording state hangs off one
   [Atomic.t], so the disabled path of every instrumentation point is a
   single atomic load and a branch — the "null sink".  When enabled, each
   domain records into its own fixed-capacity ring (reached through
   domain-local storage, so the hot path takes no locks), overwriting its
   oldest events once full; rings register themselves with the epoch on a
   domain's first event, which is the only mutex in the system and runs
   once per domain per epoch. *)

type arg = Int of int | Float of float | Str of string | Bool of bool
type phase = Begin | End | Instant

type event = {
  ph : phase;
  name : string;
  ts : float;
  dom : int;
  seq : int;
  args : (string * arg) list;
  trace : string option;
}

(* Slot [seq mod capacity] holds the event numbered [seq]; an event's own
   [seq] field tells a reader whether the slot still holds the event it
   looked for. *)
type ring = {
  r_epoch : int;
  r_dom : int;
  r_events : event array;
  mutable r_total : int;  (* lifetime writes; also the seq source *)
}

type state = {
  epoch : int;
  capacity : int;
  t0 : float;
  mutable rings : ring list;  (* guarded by [reg_mutex] *)
  reg_mutex : Mutex.t;
}

let current : state option Atomic.t = Atomic.make None
let epoch_counter = Atomic.make 0

(* [seq = -1] matches no event number, so an unwritten slot never passes
   for a recorded one *)
let dummy_event =
  { ph = Instant; name = ""; ts = 0.0; dom = 0; seq = -1; args = []; trace = None }

(* Each domain caches its ring here; the epoch tag invalidates rings from
   a previous enable so recordings never bleed across epochs. *)
let ring_key : ring option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let default_capacity = 1 lsl 18

let enable ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Obs.enable: capacity < 1";
  Atomic.set current
    (Some
       {
         epoch = 1 + Atomic.fetch_and_add epoch_counter 1;
         capacity;
         t0 = Unix.gettimeofday ();
         rings = [];
         reg_mutex = Mutex.create ();
       })

let disable () = Atomic.set current None
let enabled () = Atomic.get current <> None

(* {1 Trace context}

   A per-domain request identity.  The serve daemon installs the admitted
   request's trace id on the worker domain before running its job; every
   event recorded on that domain while the context is set — pool spans,
   CEGIS iterations, SAT queries — carries the id, so one request's span
   tree can be filtered out of a merged stream.  Reading the slot costs a
   DLS lookup only on paths that already record an event. *)

let trace_key : string option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let set_trace_context t = Domain.DLS.get trace_key := t
let trace_context () = !(Domain.DLS.get trace_key)

let with_trace_context id thunk =
  let slot = Domain.DLS.get trace_key in
  let saved = !slot in
  slot := Some id;
  Fun.protect ~finally:(fun () -> slot := saved) thunk

(* {1 Taps}

   A tap is a per-domain callback that observes every span Begin/End and
   instant emitted on its own domain while installed — independent of the
   global recording epoch, so a server can stream one request's progress
   without enabling (or resetting) whole-process tracing.  The counter
   keeps the no-tap path at one extra atomic load and a branch; the DLS
   slot is only consulted when at least one tap exists somewhere. *)

let tap_key : (phase -> string -> (string * arg) list -> unit) option ref
    Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let taps_active = Atomic.make 0

let tapping () =
  Atomic.get taps_active > 0 && !(Domain.DLS.get tap_key) <> None

let feed_tap ph name args =
  if Atomic.get taps_active > 0 then
    match !(Domain.DLS.get tap_key) with
    | None -> ()
    | Some f -> ( try f ph name args with _ -> ())

let with_tap f thunk =
  let slot = Domain.DLS.get tap_key in
  let saved = !slot in
  slot := Some f;
  Atomic.incr taps_active;
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr taps_active;
      slot := saved)
    thunk

let recording () = enabled () || tapping ()

let ring_for st =
  let slot = Domain.DLS.get ring_key in
  match !slot with
  | Some r when r.r_epoch = st.epoch -> r
  | _ ->
      let r =
        {
          r_epoch = st.epoch;
          r_dom = (Domain.self () :> int);
          r_events = Array.make st.capacity dummy_event;
          r_total = 0;
        }
      in
      Mutex.lock st.reg_mutex;
      st.rings <- r :: st.rings;
      Mutex.unlock st.reg_mutex;
      slot := Some r;
      r

let emit st ph name args =
  let r = ring_for st in
  let seq = r.r_total in
  r.r_events.(seq mod Array.length r.r_events) <-
    {
      ph;
      name;
      ts = Unix.gettimeofday () -. st.t0;
      dom = r.r_dom;
      seq;
      args;
      trace = trace_context ();
    };
  r.r_total <- seq + 1

(* One fan-out point for the ring and the tap (taps receive args as given
   — the trace id travels with the server's own progress protocol
   there). *)
let record st tapped ph name args =
  (match st with Some s -> emit s ph name args | None -> ());
  if tapped then feed_tap ph name args

let span ?(args = []) ?result name f =
  let st = Atomic.get current in
  let tapped = tapping () in
  match st with
  | None when not tapped -> f ()
  | _ -> (
      record st tapped Begin name args;
      match f () with
      | v ->
          let rargs = match result with None -> [] | Some g -> g v in
          record st tapped End name rargs;
          v
      | exception e ->
          let eargs = [ ("exception", Str (Printexc.to_string e)) ] in
          record st tapped End name eargs;
          raise e)

let instant ?(args = []) name =
  let st = Atomic.get current in
  if Option.is_some st || Atomic.get taps_active > 0 then
    record st true Instant name args

let registered_rings st =
  Mutex.lock st.reg_mutex;
  let rings = st.rings in
  Mutex.unlock st.reg_mutex;
  rings

(* One ring's surviving events, oldest first.  The read walks the event
   numbers the ring still holds and keeps a slot only while its [seq] is
   the one expected: a slot the writer lapped mid-read restarts the run
   (so the kept events stay contiguous), and a slot whose write is not
   yet visible ends it.  Each slot read is a single pointer load, so every
   kept event is whole, in the domain's own order, even while the domain
   records.  Ends whose Begin fell off the old end are dropped, so the
   result is well nested. *)
let ring_snapshot r =
  let cap = Array.length r.r_events and total = r.r_total in
  let rec read seq acc =
    if seq >= total then acc
    else
      let ev = r.r_events.(seq mod cap) in
      if ev.seq = seq then read (seq + 1) (ev :: acc)
      else if ev.seq > seq then read (seq + 1) []
      else acc
  in
  let depth = ref 0 in
  List.filter
    (fun ev ->
      match ev.ph with
      | Begin ->
          incr depth;
          true
      | End when !depth = 0 -> false
      | End ->
          decr depth;
          true
      | Instant -> true)
    (List.rev (read (max 0 (total - cap)) []))

(* K-way merge ordered by (ts, dom).  Heads are consumed in per-ring
   order, so one domain's events are never reordered even if its clock
   stepped backward; ties across domains break by domain id, making the
   merged stream a pure function of the snapshots. *)
let merge (rings : event array array) =
  let idx = Array.map (fun _ -> 0) rings in
  let out = ref [] in
  let continue = ref true in
  while !continue do
    let best = ref (-1) in
    Array.iteri
      (fun i r ->
        if idx.(i) < Array.length r then
          match !best with
          | -1 -> best := i
          | b ->
              let eb = rings.(b).(idx.(b)) and ei = r.(idx.(i)) in
              if ei.ts < eb.ts || (ei.ts = eb.ts && ei.dom < eb.dom) then
                best := i)
      rings;
    if !best < 0 then continue := false
    else begin
      out := rings.(!best).(idx.(!best)) :: !out;
      idx.(!best) <- idx.(!best) + 1
    end
  done;
  List.rev !out

let events ?trace () =
  match Atomic.get current with
  | None -> []
  | Some st ->
      let keep =
        match trace with
        | None -> Fun.const true
        | Some id -> fun ev -> ev.trace = Some id
      in
      registered_rings st
      |> List.sort (fun a b -> compare a.r_dom b.r_dom)
      |> List.map (fun r -> Array.of_list (List.filter keep (ring_snapshot r)))
      |> Array.of_list |> merge

let dropped () =
  match Atomic.get current with
  | None -> 0
  | Some st ->
      List.fold_left
        (fun acc r -> acc + max 0 (r.r_total - st.capacity))
        0 (registered_rings st)

(* {1 Chrome trace-event export}

   The JSON Object Format: {"traceEvents": [...]}.  Spans become "B"/"E"
   pairs, instants "i" with thread scope; one tid per domain; timestamps
   in microseconds.  Metadata events name the process and each domain so
   Perfetto's track labels are readable. *)

let arg_json = function
  | Int i -> Json.int i
  | Float f -> Json.num f
  | Str s -> Json.str s
  | Bool b -> Json.bool b

let chrome_event ev =
  let fields =
    [
      ("name", Json.str ev.name);
      ("cat", Json.str "owl");
      ( "ph",
        Json.str (match ev.ph with Begin -> "B" | End -> "E" | Instant -> "i")
      );
      ("ts", Printf.sprintf "%.3f" (ev.ts *. 1e6));
      ("pid", "1");
      ("tid", Json.int ev.dom);
    ]
  in
  let fields =
    match ev.ph with
    | Instant -> fields @ [ ("s", Json.str "t") ]
    | Begin | End -> fields
  in
  let args =
    match ev.trace with
    | Some id when not (List.mem_assoc "trace" ev.args) ->
        ("trace", Str id) :: ev.args
    | _ -> ev.args
  in
  let fields =
    match args with
    | [] -> fields
    | args ->
        fields
        @ [ ("args", Json.obj (List.map (fun (k, v) -> (k, arg_json v)) args))
          ]
  in
  Json.obj fields

let chrome_doc ~tail evs =
  let doms = List.sort_uniq compare (List.map (fun ev -> ev.dom) evs) in
  let meta =
    Json.obj
      [
        ("name", Json.str "process_name");
        ("ph", Json.str "M");
        ("pid", "1");
        ("args", Json.obj [ ("name", Json.str "owl") ]);
      ]
    :: List.map
         (fun d ->
           Json.obj
             [
               ("name", Json.str "thread_name");
               ("ph", Json.str "M");
               ("pid", "1");
               ("tid", Json.int d);
               ( "args",
                 Json.obj
                   [ ("name", Json.str (Printf.sprintf "domain %d" d)) ] );
             ])
         doms
  in
  Json.obj
    [
      ("traceEvents", Json.arr (meta @ List.map chrome_event evs @ tail));
      ("displayTimeUnit", Json.str "ms");
    ]

(* The dropped count is process-wide, so only the whole-ring export
   reports it; a one-request slice is exactly that request's events. *)
let chrome_trace_string ?trace () =
  let n_dropped = if trace = None then dropped () else 0 in
  let tail =
    if n_dropped = 0 then []
    else
      [
        Json.obj
          [
            ("name", Json.str "obs.dropped_events");
            ("cat", Json.str "owl");
            ("ph", Json.str "i");
            ("ts", "0");
            ("pid", "1");
            ("tid", "0");
            ("s", Json.str "g");
            ("args", Json.obj [ ("count", Json.int n_dropped) ]);
          ];
      ]
  in
  chrome_doc ~tail (events ?trace ())

let write_chrome_trace oc = output_string oc (chrome_trace_string ())

(* {1 Metrics}

   One flat registry of named cells.  A cell is a counter, a log₂-bucketed
   histogram, or a sliding window — a ring of per-second histograms — so
   histograms and windows share one distribution record, one recording
   path and one summarizing path.  The registry is
   mutex-guarded (metric handles are created once, at module
   initialization of the instrumented libraries); recording through a
   handle is atomic operations only.  The enabled flag makes the disabled
   path one load and a branch, like tracing. *)

let metrics_on = Atomic.make false
let enable_metrics () = Atomic.set metrics_on true
let disable_metrics () = Atomic.set metrics_on false
let metrics_enabled () = Atomic.get metrics_on

type kind = [ `Counter | `Histogram | `Window ]

type dist = {
  d_sec : int Atomic.t;  (* window slot: the epoch second it holds, -1 = empty *)
  d_count : int Atomic.t;
  d_sum : int Atomic.t;
  d_min : int Atomic.t;
  d_max : int Atomic.t;
  d_buckets : int Atomic.t array;  (* 64: bucket 0 = "<= 0", i = 2^(i-1).. *)
}

type cell = {
  name : string;
  kind : kind;
  value : int Atomic.t;  (* counter total *)
  dists : dist array;  (* one for a histogram, one per second for a window *)
}

type counter = cell
type histogram = cell
type window = cell

let clear_dist d =
  Atomic.set d.d_count 0;
  Atomic.set d.d_sum 0;
  Atomic.set d.d_min max_int;
  Atomic.set d.d_max min_int;
  Array.iter (fun b -> Atomic.set b 0) d.d_buckets

let new_dist () =
  {
    d_sec = Atomic.make (-1);
    d_count = Atomic.make 0;
    d_sum = Atomic.make 0;
    d_min = Atomic.make max_int;
    d_max = Atomic.make min_int;
    d_buckets = Array.init 64 (fun _ -> Atomic.make 0);
  }

let registry_mutex = Mutex.create ()
let registry : (kind * string, cell) Hashtbl.t = Hashtbl.create 64

let register ?(dists = 0) kind name =
  Mutex.lock registry_mutex;
  let c =
    match Hashtbl.find_opt registry (kind, name) with
    | Some c -> c
    | None ->
        let c =
          {
            name;
            kind;
            value = Atomic.make 0;
            dists = Array.init dists (fun _ -> new_dist ());
          }
        in
        Hashtbl.add registry (kind, name) c;
        c
  in
  Mutex.unlock registry_mutex;
  c

let counter name = register `Counter name
let histogram name = register ~dists:1 `Histogram name

let window ?(seconds = 60) name =
  if seconds < 1 then invalid_arg "Obs.window: seconds < 1";
  register ~dists:seconds `Window name

let incr ?(by = 1) c =
  if Atomic.get metrics_on then ignore (Atomic.fetch_and_add c.value by)

let bucket_of v =
  if v <= 0 then 0
  else begin
    let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
    min 63 (bits 0 v)
  end

let rec atomic_min a v =
  let cur = Atomic.get a in
  if v < cur && not (Atomic.compare_and_set a cur v) then atomic_min a v

let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

let record_dist d v =
  Atomic.incr d.d_count;
  ignore (Atomic.fetch_and_add d.d_sum v);
  atomic_min d.d_min v;
  atomic_max d.d_max v;
  Atomic.incr d.d_buckets.(bucket_of v)

let observe h v = if Atomic.get metrics_on then record_dist h.dists.(0) v

(* A window slot is recycled (under [recycle_mutex], at most once per
   second) the first time an observation lands in a new second that maps
   onto it; its second is published only after the clear, so observers of
   the same second never race the reset. *)
let recycle_mutex = Mutex.create ()

let observe_window w v =
  if Atomic.get metrics_on then begin
    let now = int_of_float (Unix.gettimeofday ()) in
    let d = w.dists.(now mod Array.length w.dists) in
    if Atomic.get d.d_sec <> now then begin
      Mutex.lock recycle_mutex;
      if Atomic.get d.d_sec <> now then begin
        clear_dist d;
        Atomic.set d.d_sec now
      end;
      Mutex.unlock recycle_mutex
    end;
    record_dist d v
  end

type metric = {
  metric_name : string;
  metric_kind : kind;
  count : int;
  sum : int;
  min_value : int;
  max_value : int;
  p50 : int;
  p90 : int;
  p99 : int;
}

(* Log-scale quantile with linear interpolation inside the landing
   bucket: bucket [i >= 1] spans [2^(i-1), 2^i - 1]; the estimate walks
   [q * total] observations into the cumulative distribution and places
   the result proportionally within the bucket's range, clamped to the
   observed min/max when the caller tracks them.  (Reporting the bucket's
   upper bound, as this used to, overstated skewed tails by up to 2×.) *)
let quantile ?(clamp_lo = 0) ?(clamp_hi = max_int) buckets total q =
  if total = 0 then 0
  else begin
    let rank = Float.max 1e-9 (q *. float_of_int total) in
    let acc = ref 0 and landing = ref (-1) and i = ref 0 in
    while !landing < 0 && !i < Array.length buckets do
      let b = buckets.(!i) in
      if b > 0 && float_of_int (!acc + b) >= rank then landing := !i
      else begin
        acc := !acc + b;
        Stdlib.incr i
      end
    done;
    let est =
      match !landing with
      | -1 | 0 -> 0 (* bucket 0 holds values <= 0 *)
      | i ->
          let lo = 1 lsl (i - 1) in
          let hi = if i >= 62 then max_int else (1 lsl i) - 1 in
          let frac =
            (rank -. float_of_int !acc) /. float_of_int buckets.(i)
          in
          lo
          + int_of_float
              (Float.round (float_of_int (hi - lo) *. Float.min 1.0 frac))
    in
    min clamp_hi (max clamp_lo est)
  end

(* One summary per cell: a counter is its value; a histogram or window
   is the merge of its distributions still inside the window (a
   histogram's single one always is). *)
let summarize ~now c =
  let summary ?(lo = 0) ?(hi = 0) ?(q = fun _ -> 0) count sum =
    Some
      {
        metric_name = c.name;
        metric_kind = c.kind;
        count;
        sum;
        min_value = lo;
        max_value = hi;
        p50 = q 0.50;
        p90 = q 0.90;
        p99 = q 0.99;
      }
  in
  let v = Atomic.get c.value in
  match c.kind with
  | `Counter -> if v = 0 then None else summary v v
  | `Histogram | `Window ->
      let live d =
        c.kind = `Histogram
        ||
        let sec = Atomic.get d.d_sec in
        sec >= 0 && now - sec < Array.length c.dists
      in
      let count = ref 0 and sum = ref 0 and lo = ref max_int and hi = ref min_int in
      let buckets = Array.make 64 0 in
      Array.iter
        (fun d ->
          if live d then begin
            count := !count + Atomic.get d.d_count;
            sum := !sum + Atomic.get d.d_sum;
            lo := min !lo (Atomic.get d.d_min);
            hi := max !hi (Atomic.get d.d_max);
            Array.iteri
              (fun i b -> buckets.(i) <- buckets.(i) + Atomic.get b)
              d.d_buckets
          end)
        c.dists;
      if !count = 0 then None
      else
        summary ~lo:!lo ~hi:!hi
          ~q:(quantile ~clamp_lo:!lo ~clamp_hi:!hi buckets !count)
          !count !sum

let metrics () =
  Mutex.lock registry_mutex;
  let cells = Hashtbl.fold (fun _ c acc -> c :: acc) registry [] in
  Mutex.unlock registry_mutex;
  let now = int_of_float (Unix.gettimeofday ()) in
  List.sort
    (fun a b -> compare a.metric_name b.metric_name)
    (List.filter_map (summarize ~now) cells)

let summary_table () =
  let ms = metrics () in
  let b = Buffer.create 1024 in
  let counters, hists = List.partition (fun m -> m.metric_kind = `Counter) ms in
  if counters <> [] then begin
    Buffer.add_string b "counters:\n";
    List.iter
      (fun m -> Printf.bprintf b "  %-36s %12d\n" m.metric_name m.count)
      counters
  end;
  if hists <> [] then begin
    Buffer.add_string b
      (Printf.sprintf
         "histograms (p50/p90/p99 interpolated within log2 buckets):\n");
    Buffer.add_string b
      (Printf.sprintf "  %-36s %8s %12s %10s %7s %7s %7s %7s %9s\n" "name"
         "count" "sum" "mean" "min" "p50" "p90" "p99" "max");
    List.iter
      (fun m ->
        Buffer.add_string b
          (Printf.sprintf "  %-36s %8d %12d %10.1f %7d %7d %7d %7d %9d\n"
             m.metric_name m.count m.sum
             (float_of_int m.sum /. float_of_int (max 1 m.count))
             m.min_value m.p50 m.p90 m.p99 m.max_value))
      hists
  end;
  if ms = [] then Buffer.add_string b "no metrics recorded\n";
  Buffer.contents b

let reset_metrics () =
  Mutex.lock registry_mutex;
  Hashtbl.iter
    (fun _ c ->
      Atomic.set c.value 0;
      Array.iter
        (fun d ->
          clear_dist d;
          Atomic.set d.d_sec (-1))
        c.dists)
    registry;
  Mutex.unlock registry_mutex
