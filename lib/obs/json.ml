(* Hand-rolled JSON emission (shared by the Chrome trace sink, the serve
   wire codec and the perfbench report) and a strict recursive-descent parser used by tests
   to validate what the emitters produce. *)

(* {1 Emission} *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 32 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let str s = "\"" ^ escape s ^ "\""
let int = string_of_int
let bool = string_of_bool

let num f =
  match Float.classify_float f with
  | FP_nan | FP_infinite -> "null"
  | _ ->
      if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
      else Printf.sprintf "%.12g" f

let obj fields =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields)
  ^ "}"

let arr items = "[" ^ String.concat ", " items ^ "]"

(* {1 Parsing} *)

type value =
  | Null
  | Bool of bool
  | Num of float
  | String of string
  | Arr of value list
  | Obj of (string * value) list

exception Parse_error of string

(* No document the toolchain writes nests deeper than 4; the cap keeps a
   hostile frame from holding a reader thread in a deep recursion whose
   cost grows faster than its length. *)
let max_depth = 512

let utf8_add b cp =
  if cp < 0x80 then Buffer.add_char b (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let error fmt =
    Printf.ksprintf
      (fun m -> raise (Parse_error (Printf.sprintf "byte %d: %s" !pos m)))
      fmt
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> error "expected %C, found %C" c c'
    | None -> error "expected %C, found end of input" c
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else error "invalid literal"
  in
  let hex4 () =
    if !pos + 4 > n then error "truncated \\u escape";
    let h = String.sub s !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ h) with
    | Some v -> v
    | None -> error "bad \\u escape %S" h
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then error "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        if !pos >= n then error "unterminated escape";
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
            let cp = hex4 () in
            let cp =
              if
                cp >= 0xD800 && cp <= 0xDBFF
                && !pos + 2 <= n
                && s.[!pos] = '\\'
                && s.[!pos + 1] = 'u'
              then begin
                pos := !pos + 2;
                let lo = hex4 () in
                if lo < 0xDC00 || lo > 0xDFFF then
                  error "invalid low surrogate %04x" lo;
                0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
              end
              else cp
            in
            utf8_add b cp
        | c -> error "invalid escape \\%c" c);
        go ()
      end
      else begin
        Buffer.add_char b c;
        go ()
      end
    in
    go ()
  in
  let rec parse_value depth =
    skip_ws ();
    let open_container () =
      if depth >= max_depth then error "nesting deeper than %d levels" max_depth;
      advance ()
    in
    match peek () with
    | None -> error "unexpected end of input"
    | Some '{' ->
        open_container ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> error "expected ',' or '}'"
          in
          fields []
        end
    | Some '[' ->
        open_container ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec items acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> error "expected ',' or ']'"
          in
          items []
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ ->
        let start = !pos in
        (match peek () with Some '-' -> advance () | _ -> ());
        let is_num_char c =
          (c >= '0' && c <= '9') || c = '.' || c = 'e' || c = 'E' || c = '+'
          || c = '-'
        in
        while
          match peek () with Some c when is_num_char c -> true | _ -> false
        do
          advance ()
        done;
        let sub = String.sub s start (!pos - start) in
        (match float_of_string_opt sub with
        | Some f when sub <> "" -> Num f
        | _ -> error "invalid number %S" sub)
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then error "trailing garbage";
  v

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
