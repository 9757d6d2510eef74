(* Content-addressed on-disk synthesis cache.

   Layout: <root>/r/<fingerprint>, where the name is a SHA-256 hex string
   produced by [fingerprint].  Every entry is one file:

     owl-cache <version> result <payload-sha256> <payload-length>\n
     <payload bytes>

   The header makes stale detection cheap and total: a version bump, any
   kind other than "result", a truncation (payload shorter than declared), trailing
   junk (longer), or any bit flip (checksum) all classify the entry as
   stale, which readers treat as a miss.  Payload parsing goes through
   the Term smart constructors, so even a checksum-valid but logically
   stale document (e.g. a width change) is rejected by revalidation.

   Publication is write-to-temp + atomic rename in the same directory,
   so concurrent writers — worker domains of one process or entirely
   separate processes sharing a cache directory — never expose torn
   entries; duplicate solves of the same fingerprint just overwrite each
   other with equally valid files.  All write failures are swallowed: a
   cache that cannot write degrades to a slower run, never a broken
   one. *)

let format_version = 1

type t = {
  root : string;
  n_hits : int Atomic.t;
  n_misses : int Atomic.t;
  n_stale : int Atomic.t;
  n_writes : int Atomic.t;
}

type counters = { hits : int; misses : int; stale : int; writes : int }

let hit c = Atomic.incr c.n_hits
let miss c = Atomic.incr c.n_misses
let stale c = Atomic.incr c.n_stale
let wrote c = Atomic.incr c.n_writes

let counters c =
  {
    hits = Atomic.get c.n_hits;
    misses = Atomic.get c.n_misses;
    stale = Atomic.get c.n_stale;
    writes = Atomic.get c.n_writes;
  }

let fingerprint doc = Sha256.digest_hex doc

(* Entry names come out of [fingerprint], so anything else is a caller
   bug — and the check keeps [clear] safely confined to files this
   module created. *)
let check_name what name =
  let hex = function '0' .. '9' | 'a' .. 'f' -> true | _ -> false in
  if name = "" || not (String.for_all hex name) then
    invalid_arg (Printf.sprintf "Owl_cache: %s is not a fingerprint" what)

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let result_dir root = Filename.concat root "r"

let open_dir root =
  mkdir_p (result_dir root);
  {
    root;
    n_hits = Atomic.make 0;
    n_misses = Atomic.make 0;
    n_stale = Atomic.make 0;
    n_writes = Atomic.make 0;
  }

let dir c = c.root

(* {1 Entry I/O} *)

let tmp_counter = Atomic.make 0

let tmp_path dir =
  Filename.concat dir
    (Printf.sprintf "tmp.%d.%d.%d" (Unix.getpid ())
       (Domain.self () :> int)
       (Atomic.fetch_and_add tmp_counter 1))

let write_entry c ~path payload =
  try
    let tmp = tmp_path (Filename.dirname path) in
    let oc = open_out_bin tmp in
    (try
       Printf.fprintf oc "owl-cache %d result %s %d\n" format_version
         (Sha256.digest_hex payload)
         (String.length payload);
       output_string oc payload;
       close_out oc
     with e ->
       close_out_noerr oc;
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    Unix.rename tmp path;
    wrote c
  with Sys_error _ | Unix.Unix_error _ -> ()

type read_result = Absent | Stale | Entry of string

let read_entry path =
  match open_in_bin path with
  | exception Sys_error _ -> Absent
  | ic ->
      let r =
        try
          let header = input_line ic in
          match String.split_on_char ' ' header with
          | [ "owl-cache"; v; k; sha; len ] -> (
              match (int_of_string_opt v, int_of_string_opt len) with
              | Some v, Some len
                when v = format_version && k = "result" && len >= 0
                     && len <= in_channel_length ic ->
                  let payload = really_input_string ic len in
                  let trailing =
                    match input_char ic with
                    | _ -> true
                    | exception End_of_file -> false
                  in
                  if trailing || Sha256.digest_hex payload <> sha then Stale
                  else Entry payload
              | _ -> Stale)
          | _ -> Stale
        with End_of_file | Sys_error _ | Failure _ | Invalid_argument _ ->
          Stale
      in
      close_in_noerr ic;
      r

(* Line-oriented payload parsing; any malformation raises and the caller
   classifies the entry as stale. *)
let line_reader payload =
  let len = String.length payload in
  let pos = ref 0 in
  let next () =
    if !pos >= len then failwith "cache entry truncated";
    let i =
      try String.index_from payload !pos '\n'
      with Not_found -> failwith "cache entry truncated"
    in
    let l = String.sub payload !pos (i - !pos) in
    pos := i + 1;
    l
  in
  let rest () = String.sub payload !pos (len - !pos) in
  (next, rest)

let count_of header line =
  match String.split_on_char ' ' line with
  | [ h; n ] when h = header -> (
      match int_of_string_opt n with
      | Some n when n >= 0 && n <= 1_000_000 -> n
      | _ -> failwith "cache entry count out of range")
  | _ -> failwith "cache entry bad section header"

(* {1 Result tier}

   A payload is a "bindings N" section, one "name value" line per
   binding, then a "constraints N" line.  The constraints ride along as a
   Term.serialize document occupying the rest of the payload; an empty
   list skips the document entirely (and the count line cross-checks the
   roots actually present). *)

let result_path c fp = Filename.concat (result_dir c.root) fp

let store_result c ~fp ~bindings ~constraints =
  check_name "result fingerprint" fp;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "bindings %d\n" (List.length bindings));
  List.iter
    (fun (name, v) ->
      if String.contains name ' ' || String.contains name '\n' then
        invalid_arg "Owl_cache.store_result: binding name contains whitespace";
      Buffer.add_string buf (Printf.sprintf "%s %s\n" name (Bitvec.to_string v)))
    bindings;
  Buffer.add_string buf
    (Printf.sprintf "constraints %d\n" (List.length constraints));
  if constraints <> [] then Buffer.add_string buf (Term.serialize constraints);
  write_entry c ~path:(result_path c fp) (Buffer.contents buf)

let parse_result payload =
  let next, rest = line_reader payload in
  let n = count_of "bindings" (next ()) in
  let bindings =
    List.init n (fun _ ->
        match String.split_on_char ' ' (next ()) with
        | [ name; v ] -> (name, Bitvec.of_string v)
        | _ -> failwith "cache entry bad binding")
  in
  let n = count_of "constraints" (next ()) in
  if n = 0 then (bindings, [])
  else begin
    let constraints = Term.deserialize (rest ()) in
    if List.length constraints <> n then
      failwith "cache entry root count mismatch";
    (bindings, constraints)
  end

let lookup_result c ~fp ~validate =
  check_name "result fingerprint" fp;
  match read_entry (result_path c fp) with
  | Absent ->
      miss c;
      None
  | Stale ->
      stale c;
      None
  | Entry payload -> (
      match parse_result payload with
      | exception _ ->
          stale c;
          None
      | bindings, constraints ->
          let ok = try validate bindings constraints with _ -> false in
          if ok then begin
            hit c;
            Some bindings
          end
          else begin
            (* present but untrustworthy: never a wrong answer, so it
               degrades to a miss and the solve will overwrite it *)
            stale c;
            None
          end)

(* {1 Maintenance} *)

type disk_stats = { result_entries : int; total_bytes : int }

let is_tmp name =
  String.length name >= 4 && String.sub name 0 4 = "tmp."

let scan dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ([], 0)
  | names ->
      Array.fold_left
        (fun (entries, bytes) name ->
          let path = Filename.concat dir name in
          let size =
            match Unix.stat path with
            | st -> st.Unix.st_size
            | exception Unix.Unix_error _ -> 0
          in
          let entries = if is_tmp name then entries else name :: entries in
          (entries, bytes + size))
        ([], 0) names

let disk_stats c =
  let r, bytes = scan (result_dir c.root) in
  { result_entries = List.length r; total_bytes = bytes }

let clear c =
  match Sys.readdir (result_dir c.root) with
  | exception Sys_error _ -> 0
  | names ->
      Array.fold_left
        (fun removed name ->
          try
            Sys.remove (Filename.concat (result_dir c.root) name);
            removed + 1
          with Sys_error _ -> removed)
        0 names

(* {1 In-process LRU (the serve hot tier)}

   A small mutex-guarded LRU keyed by fingerprint strings.  The on-disk
   result tier above survives process restarts but costs a file read, a
   checksum, and a re-validation per hit; a daemon answering the same
   problem for many clients wants repeats to cost a hash lookup and
   nothing else.  Classic doubly-linked-list-over-hashtable: find and add
   are O(1), the lock is held for pointer surgery only.  Values are
   stored as given — the hot tier holds already-encoded replies, so no
   validation happens here; anything whose staleness matters belongs in
   the result tier. *)

module Lru = struct
  type 'v node = {
    n_key : string;
    mutable n_value : 'v;
    mutable n_prev : 'v node option;  (* toward most recent *)
    mutable n_next : 'v node option;  (* toward least recent *)
  }

  type 'v t = {
    l_capacity : int;
    l_tbl : (string, 'v node) Hashtbl.t;
    mutable l_head : 'v node option;  (* most recently used *)
    mutable l_tail : 'v node option;  (* least recently used *)
    l_mutex : Mutex.t;
    mutable l_hits : int;
    mutable l_misses : int;
    mutable l_evictions : int;
  }

  let create ~capacity =
    if capacity < 0 then invalid_arg "Owl_cache.Lru.create: capacity < 0";
    {
      l_capacity = capacity;
      l_tbl = Hashtbl.create (max 16 capacity);
      l_head = None;
      l_tail = None;
      l_mutex = Mutex.create ();
      l_hits = 0;
      l_misses = 0;
      l_evictions = 0;
    }

  let capacity t = t.l_capacity

  (* all list surgery below runs under [l_mutex] *)

  let unlink t n =
    (match n.n_prev with
    | Some p -> p.n_next <- n.n_next
    | None -> t.l_head <- n.n_next);
    (match n.n_next with
    | Some s -> s.n_prev <- n.n_prev
    | None -> t.l_tail <- n.n_prev);
    n.n_prev <- None;
    n.n_next <- None

  let push_front t n =
    n.n_next <- t.l_head;
    n.n_prev <- None;
    (match t.l_head with Some h -> h.n_prev <- Some n | None -> ());
    t.l_head <- Some n;
    if t.l_tail = None then t.l_tail <- Some n

  let locked t f =
    Mutex.lock t.l_mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.l_mutex) f

  let find ?(count = true) t key =
    locked t (fun () ->
        match Hashtbl.find_opt t.l_tbl key with
        | Some n ->
            if count then t.l_hits <- t.l_hits + 1;
            unlink t n;
            push_front t n;
            Some n.n_value
        | None ->
            if count then t.l_misses <- t.l_misses + 1;
            None)

  let add t key value =
    if t.l_capacity > 0 then
      locked t (fun () ->
          (match Hashtbl.find_opt t.l_tbl key with
          | Some n ->
              n.n_value <- value;
              unlink t n;
              push_front t n
          | None ->
              let n =
                { n_key = key; n_value = value; n_prev = None; n_next = None }
              in
              Hashtbl.replace t.l_tbl key n;
              push_front t n);
          while Hashtbl.length t.l_tbl > t.l_capacity do
            match t.l_tail with
            | Some victim ->
                unlink t victim;
                Hashtbl.remove t.l_tbl victim.n_key;
                t.l_evictions <- t.l_evictions + 1
            | None -> assert false
          done)

  type stats = { hits : int; misses : int; evictions : int; size : int }

  let stats t =
    locked t (fun () ->
        {
          hits = t.l_hits;
          misses = t.l_misses;
          evictions = t.l_evictions;
          size = Hashtbl.length t.l_tbl;
        })
end
