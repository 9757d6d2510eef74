(* Output checks, run outside the timed body.  Every input is derived from
   the run's seed, so a second seed checks the same designs on other
   programs, messages and blocks. *)

let rng ~seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

let random_word rng width =
  Bitvec.of_bits (Array.init width (fun _ -> Random.State.bool rng))

let programs_per_core = 3

(* Co-simulation of a completed RISC-V core against the ISS on seeded
   random programs: final registers and the low data memory must agree. *)
let cosim ~seed ~tag design variant =
  let rng = rng ~seed tag in
  let mismatch = ref None in
  for k = 1 to programs_per_core do
    if !mismatch = None then begin
      let program = Designs.Testbench.random_program rng variant ~len:40 in
      let dmem_init = List.init 32 (fun i -> (i, random_word rng 32)) in
      let halt_pc = 4 * (List.length program - 1) in
      let core =
        Designs.Testbench.run_core design ~program ~dmem_init ~halt_pc
          ~max_cycles:2000
      in
      let outcome, iss =
        Designs.Testbench.run_iss variant ~program ~dmem_init
          ~max_cycles:2000
      in
      let st = core.Designs.Testbench.state in
      let fail what = mismatch := Some (Printf.sprintf "program %d: %s" k what) in
      if core.Designs.Testbench.cycles_to_halt = None then fail "core did not halt"
      else if outcome <> `Halted then fail "ISS did not halt"
      else begin
        for r = 0 to 31 do
          if not (Bitvec.equal (Isa.Iss.get_reg iss r) (Designs.Testbench.core_reg st r))
          then fail (Printf.sprintf "x%d differs" r)
        done;
        for a = 0 to 40 do
          if
            not
              (Bitvec.equal (Isa.Iss.dmem_read iss a) (Designs.Testbench.core_dmem st a))
          then fail (Printf.sprintf "mem[%d] differs" a)
        done
      end
    end
  done;
  match !mismatch with
  | None -> Ok (Printf.sprintf "%d ISS co-simulations agree" programs_per_core)
  | Some m -> Error m

(* The constant-time SHA-256 program on the crypto core, against the
   reference digest of a seeded message. *)
let sha ~seed design =
  let rng = rng ~seed "sha" in
  let len = 4 + Random.State.int rng 29 in
  let msg = String.init len (fun _ -> Char.chr (33 + Random.State.int rng 90)) in
  let program = Sha_program.generate () in
  let r =
    Designs.Testbench.run_core design ~program
      ~dmem_init:(Sha_program.pack_input msg)
      ~halt_pc:(4 * (List.length program - 1))
      ~max_cycles:20000
  in
  let hex =
    Sha_program.read_digest (fun a ->
        Designs.Testbench.core_dmem r.Designs.Testbench.state a)
    |> Array.to_list
    |> List.map (Printf.sprintf "%08x")
    |> String.concat ""
  in
  if r.Designs.Testbench.cycles_to_halt = None then Error "SHA program did not halt"
  else if hex <> Sha256.digest_hex msg then
    Error (Printf.sprintf "SHA-256 of %S differs" msg)
  else Ok (Printf.sprintf "SHA-256 of a %d-byte message matches" len)

(* The AES accelerator on seeded key/plaintext blocks, against the
   byte-matrix reference. *)
let aes ~seed design =
  let rng = rng ~seed "aes" in
  let rec go k =
    if k = 0 then Ok "2 AES-128 blocks match the reference"
    else begin
      let key = random_word rng 128 and plaintext = random_word rng 128 in
      if
        Bitvec.equal
          (Designs.Aes.run_accelerator design ~key ~plaintext)
          (Designs.Aes_reference.encrypt key plaintext)
      then go (k - 1)
      else Error "AES ciphertext differs"
    end
  in
  go 2
