(* Synchronous client for the owl serve protocol.

   One request in flight at a time: each call writes a frame, then reads
   replies — forwarding the non-terminal [Progress] stream to the
   caller's callback — until its terminal reply arrives.  Outcomes the
   caller must act on (backpressure, server-reported errors) are
   exceptions, so the happy-path return types stay plain results. *)

type t = { fd : Unix.file_descr }

exception Server_busy of int
exception Server_error of Proto.error
exception Protocol_error of string

let connect addr =
  let sa = Proto.sockaddr_of_addr addr in
  let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  (try Unix.connect fd sa with e -> Unix.close fd; raise e);
  { fd }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* reads to the terminal reply; [on_progress] sees the stream.  A reply
   the protocol allows but this exchange does not expect (say, a
   [Pong] answering a [Synth]) is a server bug — surfaced as
   [Protocol_error], never silently dropped. *)
let exchange ?(on_progress = fun _ -> ()) t req =
  Proto.write_frame t.fd (Proto.request_to_frame req);
  let rec next () =
    match Proto.read_frame t.fd with
    | None -> raise (Protocol_error "server closed the connection mid-exchange")
    | Some payload -> (
        match Proto.reply_of_frame payload with
        | Error e ->
            raise
              (Protocol_error
                 (Printf.sprintf "undecodable reply (%s: %s)" e.Proto.code
                    e.Proto.message))
        | Ok (Proto.Progress p) ->
            on_progress p;
            next ()
        | Ok (Proto.Busy { queue_depth }) -> raise (Server_busy queue_depth)
        | Ok (Proto.Err e) -> raise (Server_error e)
        | Ok reply -> reply)
  in
  next ()

let unexpected what = raise (Protocol_error ("unexpected terminal reply to " ^ what))

let ping t =
  match exchange t Proto.Ping with
  | Proto.Pong { server; protocol; health } -> (server, protocol, health)
  | _ -> unexpected "ping"

let synth ?on_progress t ~design options =
  match exchange ?on_progress t (Proto.Synth { design; options }) with
  | Proto.Synth_result r -> r
  | _ -> unexpected "synth"

let verify ?on_progress t ~design options =
  match exchange ?on_progress t (Proto.Verify { design; options }) with
  | Proto.Verify_result r -> r
  | _ -> unexpected "verify"

let cache_stats t =
  match exchange t Proto.Cache_stats with
  | Proto.Cache_stats_reply c -> c
  | _ -> unexpected "cache_stats"

let metrics t =
  match exchange t Proto.Metrics with
  | Proto.Metrics_reply ms -> ms
  | _ -> unexpected "metrics"

let dump_trace ?trace t =
  match exchange t (Proto.Dump_trace { trace }) with
  | Proto.Dump_trace_reply { trace_json } -> trace_json
  | _ -> unexpected "dump_trace"

let shutdown t =
  match exchange t Proto.Shutdown with
  | Proto.Shutdown_ack -> ()
  | _ -> unexpected "shutdown"

(* {1 Retry} *)

let c_retries = Obs.counter "client.retries"

(* Worth another attempt: backpressure, a lost worker (the server says so
   explicitly), or the connection dying under us — daemon restarts and
   the [conn_drop] chaos fault land here.  Requests are idempotent by
   content fingerprint, so re-sending after an ambiguous failure risks
   recomputation, never a wrong answer. *)
let retryable = function
  | Server_busy _ -> true
  | Server_error { Proto.code = "worker_lost"; _ } -> true
  | Protocol_error _ -> true
  | Proto.Framing_error _ -> true
  | Unix.Unix_error
      ( ( Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.EPIPE | Unix.ENOENT
        | Unix.EAGAIN | Unix.ETIMEDOUT ),
        _,
        _ ) ->
      true
  | _ -> false

(* exponential base doubling per attempt, jittered to half-to-full of the
   rung so a burst of rejected clients does not re-arrive in lockstep;
   seeded [Random.State] keeps any one client's schedule reproducible *)
let backoff_delay ~backoff_ms ~seed ~attempt =
  let st = Random.State.make [| seed; attempt; 0x6f776c |] in
  let rung = float_of_int backoff_ms *. (2.0 ** float_of_int (attempt - 1)) in
  rung /. 1000.0 *. (0.5 +. Random.State.float st 0.5)

let with_retry ?(retries = 0) ?(backoff_ms = 100) ?(seed = 0)
    ?(on_retry = fun ~attempt:_ ~delay:_ _ -> ()) addr f =
  if retries < 0 then invalid_arg "Client.with_retry: retries < 0";
  if backoff_ms < 0 then invalid_arg "Client.with_retry: backoff_ms < 0";
  let rec go attempt =
    match
      let c = connect addr in
      Fun.protect ~finally:(fun () -> close c) (fun () -> f c)
    with
    | v -> v
    | exception e when attempt <= retries && retryable e ->
        Obs.incr c_retries;
        let delay = backoff_delay ~backoff_ms ~seed ~attempt in
        on_retry ~attempt ~delay e;
        Unix.sleepf delay;
        go (attempt + 1)
  in
  go 1
