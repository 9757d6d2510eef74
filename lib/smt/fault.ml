(* Deterministic fault injection.  See the interface for the plan grammar.

   Every directive is declared once, in [directives]; parsing, rendering
   and the hooks all read that table.  The installed plan lives in one
   [Atomic.t]; the hot path with no plan installed is a single atomic load
   returning [None]/unit.  Counters are atomics inside the installed
   state, one per site, so concurrent worker domains index checks and task
   attempts in a coherent global order (which faults land on which worker
   under [jobs > 1] depends on the schedule — recovery, not fault
   placement, is what must be deterministic). *)

type action = Spurious_unknown | Corrupt_model
type frame_action = Drop_conn | Delay of float

exception Injected_crash of int
exception Injected_worker_kill of int
exception Parse_error of string

(* how long a [frame_delay@N] stalls its frame: long enough to reorder a
   race, short enough that chaos suites stay fast *)
let frame_delay_seconds = 0.05

(* Where a directive strikes, and what its hook does there. *)
type site =
  | Check of action  (* solver checks *)
  | Task  (* pool task attempts: raise [Injected_crash] *)
  | Serve_job  (* service-job executions: raise [Injected_worker_kill] *)
  | Frame of frame_action  (* server-written frames *)
  | Admit  (* admission decisions: answer Busy *)

(* one arrival counter per site in [state.arrivals]; each hook passes its
   own: 0 check, 1 task, 2 serve job, 3 frame, 4 admission *)
let sites = 5

(* The directives in canonical order: [to_string] renders them in this
   order, and at one index of one site the earlier directive wins. *)
let directives =
  [|
    ("unknown", Check Spurious_unknown);
    ("corrupt", Check Corrupt_model);
    ("crash", Task);
    ("worker_kill", Serve_job);
    ("conn_drop", Frame Drop_conn);
    ("frame_delay", Frame (Delay frame_delay_seconds));
    ("shed", Admit);
  |]

type plan = {
  indices : int list array;
      (* per row of [directives]: sorted, 1-based arrival indices *)
  plan_seed : int;
}

type state = { plan : plan; arrivals : int Atomic.t array; hits : int Atomic.t }

let installed : state option Atomic.t = Atomic.make None

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let parse s =
  let index directive v =
    match int_of_string_opt v with
    | Some n when n >= 1 -> n
    | Some n -> parse_error "fault plan: %s@%d: index must be >= 1" directive n
    | None -> parse_error "fault plan: %s@%s: not an integer" directive v
  in
  let rank d =
    match Array.find_index (fun (name, _) -> name = d) directives with
    | Some r -> r
    | None -> parse_error "fault plan: unknown directive %S" d
  in
  let parts =
    String.split_on_char ',' (String.trim s)
    |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  if parts = [] then parse_error "fault plan: empty plan";
  let indices = Array.make (Array.length directives) [] in
  let plan_seed = ref 0 in
  List.iter
    (fun part ->
      match String.index_opt part '@' with
      | Some i ->
          let d = String.sub part 0 i in
          let v = String.sub part (i + 1) (String.length part - i - 1) in
          let n = index d v in
          let r = rank d in
          indices.(r) <- n :: indices.(r)
      | None -> (
          match String.index_opt part '=' with
          | Some i when String.sub part 0 i = "seed" -> (
              let v = String.sub part (i + 1) (String.length part - i - 1) in
              match int_of_string_opt v with
              | Some n -> plan_seed := n
              | None -> parse_error "fault plan: seed=%s: not an integer" v)
          | _ -> parse_error "fault plan: cannot parse element %S" part))
    parts;
  { indices = Array.map (List.sort_uniq compare) indices; plan_seed = !plan_seed }

let to_string p =
  let tagged =
    List.concat
      (List.mapi
         (fun r (name, _) ->
           List.map (Printf.sprintf "%s@%d" name) p.indices.(r))
         (Array.to_list directives))
  in
  String.concat ","
    (tagged
    @ if p.plan_seed = 0 then [] else [ Printf.sprintf "seed=%d" p.plan_seed ])

let install plan =
  Atomic.set installed
    (Some
       {
         plan;
         arrivals = Array.init sites (fun _ -> Atomic.make 0);
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

(* One arrival at the site with counter [slot], whose rows [pick]
   accepts: advance the counter to index [i] and return [pick]'s payload
   of the first row planned at [i], with [i].  With a plan installed every
   arrival advances the counter, fired or not. *)
let fire slot pick =
  match Atomic.get installed with
  | None -> None
  | Some st ->
      let i = 1 + Atomic.fetch_and_add st.arrivals.(slot) 1 in
      let rec first r =
        if r = Array.length directives then None
        else
          match pick (snd directives.(r)) with
          | Some x when List.mem i st.plan.indices.(r) ->
              Atomic.incr st.hits;
              Some (x, i)
          | _ -> first (r + 1)
      in
      first 0

let on_check () =
  Option.map fst (fire 0 (function Check a -> Some a | _ -> None))

let on_task () =
  match fire 1 (function Task -> Some () | _ -> None) with
  | Some ((), i) -> raise (Injected_crash i)
  | None -> ()

let on_serve_job () =
  match fire 2 (function Serve_job -> Some () | _ -> None) with
  | Some ((), i) -> raise (Injected_worker_kill i)
  | None -> ()

let on_frame () =
  Option.map fst (fire 3 (function Frame a -> Some a | _ -> None))

let on_admit () = fire 4 (function Admit -> Some () | _ -> None) <> None
