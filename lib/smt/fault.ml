(* Deterministic fault injection.  See the interface for the plan grammar.

   The installed plan lives in one [Atomic.t]; the hot path with no plan
   installed is a single atomic load returning [None]/unit.  Counters are
   atomics inside the installed state, so concurrent worker domains index
   checks and task attempts in a coherent global order (which faults land
   on which worker under [jobs > 1] depends on the schedule — recovery,
   not fault placement, is what must be deterministic). *)

type action = Spurious_unknown | Corrupt_model
type frame_action = Drop_conn | Delay of float

exception Injected_crash of int
exception Injected_worker_kill of int
exception Parse_error of string

(* how long a [frame_delay@N] stalls its frame: long enough to reorder a
   race, short enough that chaos suites stay fast *)
let frame_delay_seconds = 0.05

type plan = {
  unknowns : int list;  (* sorted, 1-based check indices *)
  corrupts : int list;
  crashes : int list;  (* sorted, 1-based task-attempt indices *)
  worker_kills : int list;  (* sorted, 1-based service-job indices *)
  conn_drops : int list;  (* sorted, 1-based server-written frame indices *)
  frame_delays : int list;
  sheds : int list;  (* sorted, 1-based admission indices *)
  plan_seed : int;
}

type state = {
  plan : plan;
  checks : int Atomic.t;
  tasks : int Atomic.t;
  serve_jobs : int Atomic.t;
  frames : int Atomic.t;
  admits : int Atomic.t;
  hits : int Atomic.t;
}

let installed : state option Atomic.t = Atomic.make None

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let parse s =
  let index directive v =
    match int_of_string_opt v with
    | Some n when n >= 1 -> n
    | Some n -> parse_error "fault plan: %s@%d: index must be >= 1" directive n
    | None -> parse_error "fault plan: %s@%s: not an integer" directive v
  in
  let parts =
    String.split_on_char ',' (String.trim s)
    |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  if parts = [] then parse_error "fault plan: empty plan";
  let p =
    List.fold_left
      (fun acc part ->
        match String.index_opt part '@' with
        | Some i -> (
            let d = String.sub part 0 i in
            let v = String.sub part (i + 1) (String.length part - i - 1) in
            let n = index d v in
            match d with
            | "unknown" -> { acc with unknowns = n :: acc.unknowns }
            | "corrupt" -> { acc with corrupts = n :: acc.corrupts }
            | "crash" -> { acc with crashes = n :: acc.crashes }
            | "worker_kill" -> { acc with worker_kills = n :: acc.worker_kills }
            | "conn_drop" -> { acc with conn_drops = n :: acc.conn_drops }
            | "frame_delay" -> { acc with frame_delays = n :: acc.frame_delays }
            | "shed" -> { acc with sheds = n :: acc.sheds }
            | _ -> parse_error "fault plan: unknown directive %S" d)
        | None -> (
            match String.index_opt part '=' with
            | Some i when String.sub part 0 i = "seed" -> (
                let v = String.sub part (i + 1) (String.length part - i - 1) in
                match int_of_string_opt v with
                | Some n -> { acc with plan_seed = n }
                | None -> parse_error "fault plan: seed=%s: not an integer" v)
            | _ -> parse_error "fault plan: cannot parse element %S" part))
      {
        unknowns = [];
        corrupts = [];
        crashes = [];
        worker_kills = [];
        conn_drops = [];
        frame_delays = [];
        sheds = [];
        plan_seed = 0;
      }
      parts
  in
  {
    unknowns = List.sort_uniq compare p.unknowns;
    corrupts = List.sort_uniq compare p.corrupts;
    crashes = List.sort_uniq compare p.crashes;
    worker_kills = List.sort_uniq compare p.worker_kills;
    conn_drops = List.sort_uniq compare p.conn_drops;
    frame_delays = List.sort_uniq compare p.frame_delays;
    sheds = List.sort_uniq compare p.sheds;
    plan_seed = p.plan_seed;
  }

let to_string p =
  let tag d = List.map (fun n -> Printf.sprintf "%s@%d" d n) in
  String.concat ","
    (tag "unknown" p.unknowns @ tag "corrupt" p.corrupts
    @ tag "crash" p.crashes
    @ tag "worker_kill" p.worker_kills
    @ tag "conn_drop" p.conn_drops
    @ tag "frame_delay" p.frame_delays
    @ tag "shed" p.sheds
    @ if p.plan_seed = 0 then [] else [ Printf.sprintf "seed=%d" p.plan_seed ])

let install plan =
  Atomic.set installed
    (Some
       {
         plan;
         checks = Atomic.make 0;
         tasks = Atomic.make 0;
         serve_jobs = Atomic.make 0;
         frames = Atomic.make 0;
         admits = Atomic.make 0;
         hits = Atomic.make 0;
       })

let clear () = Atomic.set installed None
let active () = Atomic.get installed <> None

let seed () =
  match Atomic.get installed with
  | Some st -> st.plan.plan_seed
  | None -> 0

let fired () =
  match Atomic.get installed with Some st -> Atomic.get st.hits | None -> 0

let on_check () =
  match Atomic.get installed with
  | None -> None
  | Some st ->
      let i = 1 + Atomic.fetch_and_add st.checks 1 in
      if List.mem i st.plan.unknowns then begin
        Atomic.incr st.hits;
        Some Spurious_unknown
      end
      else if List.mem i st.plan.corrupts then begin
        Atomic.incr st.hits;
        Some Corrupt_model
      end
      else None

let on_task () =
  match Atomic.get installed with
  | None -> ()
  | Some st ->
      let i = 1 + Atomic.fetch_and_add st.tasks 1 in
      if List.mem i st.plan.crashes then begin
        Atomic.incr st.hits;
        raise (Injected_crash i)
      end

let on_serve_job () =
  match Atomic.get installed with
  | None -> ()
  | Some st ->
      let i = 1 + Atomic.fetch_and_add st.serve_jobs 1 in
      if List.mem i st.plan.worker_kills then begin
        Atomic.incr st.hits;
        raise (Injected_worker_kill i)
      end

let on_frame () =
  match Atomic.get installed with
  | None -> None
  | Some st ->
      (* the plan-free fast path above keeps production sends at one
         atomic load; with a plan installed every server-written frame
         advances the shared index, drops included *)
      let i = 1 + Atomic.fetch_and_add st.frames 1 in
      if List.mem i st.plan.conn_drops then begin
        Atomic.incr st.hits;
        Some Drop_conn
      end
      else if List.mem i st.plan.frame_delays then begin
        Atomic.incr st.hits;
        Some (Delay frame_delay_seconds)
      end
      else None

let on_admit () =
  match Atomic.get installed with
  | None -> false
  | Some st ->
      let i = 1 + Atomic.fetch_and_add st.admits 1 in
      if List.mem i st.plan.sheds then begin
        Atomic.incr st.hits;
        true
      end
      else false
