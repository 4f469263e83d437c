open Prop.Gen

let gen_limits = { Wire.max_frame = 512; max_sessions = 64; max_members = 24 }

(* ---- generators -------------------------------------------------- *)

let gen_u32 = int_range 0 0xFFFFFFFF
let gen_u16 = int_range 0 0xFFFF

(* trace timestamps: mostly small, sometimes 0 or huge-but-finite *)
let gen_at =
  oneof
    [ return 0.0; float_range 0.0 1e4; float_range 1e9 1e12 ]

(* strictly positive demands and capacities across many magnitudes *)
let gen_pos =
  oneof
    [ float_range 1e-6 1.0; float_range 1.0 1e4; float_range 1e6 1e9;
      return 1.0 ]

(* capacities: positive, or 0 for a link taken down *)
let gen_capacity = oneof [ gen_pos; return 0.0 ]

let gen_nonneg = oneof [ return 0.0; float_range 0.0 1e6 ]

(* arbitrary binary payloads, empty included *)
let gen_string =
  bind (int_range 0 200) (fun n ->
      map
        (fun codes -> String.init n (fun i -> Char.chr codes.(i)))
        (array_n n (int_range 0 255)))

let gen_members =
  bind
    (oneof
       [ int_range 2 8; int_range 2 gen_limits.Wire.max_members;
         return gen_limits.Wire.max_members ])
    (fun n -> array_n n gen_u32)

let gen_format = choose [ Wire.Prometheus; Wire.Json ]

let gen_code =
  choose
    [ Wire.Protocol_error; Wire.Unknown_tag; Wire.Limit_exceeded;
      Wire.Bad_event; Wire.Unsupported_version; Wire.Not_ready;
      Wire.Shutting_down; Wire.Internal ]

let gen_frame : Wire.frame Prop.Gen.t =
  oneof
    [
      map (fun version -> Wire.Hello { version }) gen_u16;
      (fun rng ->
        Wire.Hello_ack
          {
            version = gen_u16 rng;
            limits =
              {
                Wire.max_frame = int_range 1 0xFFFFFFFF rng;
                max_sessions = int_range 1 0xFFFFFFFF rng;
                max_members = int_range 2 0xFFFFFFFF rng;
              };
          });
      (fun rng ->
        let at = gen_at rng in
        let id = gen_u32 rng in
        let demand = gen_pos rng in
        let members = gen_members rng in
        Wire.Session_join { at; id; demand; members });
      (fun rng -> Wire.Session_leave { at = gen_at rng; id = gen_u32 rng });
      (fun rng ->
        Wire.Demand_change
          { at = gen_at rng; id = gen_u32 rng; demand = gen_pos rng });
      (fun rng ->
        Wire.Capacity_change
          { at = gen_at rng; edge = gen_u32 rng; capacity = gen_capacity rng });
      (fun rng ->
        Wire.Solve_report
          {
            (* seqs up to 2^53: inside the wire's u62 domain without
               overflowing Rng.int's bound arithmetic *)
            seq = int_range 0 0x1FFFFFFFFFFFFF rng;
            at = gen_at rng;
            k = gen_u32 rng;
            warm = bool rng;
            certified = bool rng;
            attempts = gen_u16 rng;
            objective = gen_nonneg rng;
            solve_s = gen_nonneg rng;
            total_s = gen_nonneg rng;
          });
      map (fun format -> Wire.Metrics_pull { format }) gen_format;
      (fun rng ->
        Wire.Metrics_reply { format = gen_format rng; body = gen_string rng });
      (fun rng -> Wire.Error { code = gen_code rng; message = gen_string rng });
      return Wire.Shutdown;
    ]

let shrink_frame (f : Wire.frame) : Wire.frame list =
  match f with
  | Wire.Session_join ({ members; _ } as j) when Array.length members > 2 ->
    [
      Wire.Session_join { j with members = Array.sub members 0 2 };
      Wire.Session_join
        { j with members = Array.sub members 0 (Array.length members / 2) };
    ]
  | Wire.Session_join j ->
    [ Wire.Session_join { j with at = 0.0; id = 0; demand = 1.0 } ]
  | Wire.Metrics_reply ({ body; _ } as r) when String.length body > 0 ->
    [
      Wire.Metrics_reply { r with body = "" };
      Wire.Metrics_reply
        { r with body = String.sub body 0 (String.length body / 2) };
    ]
  | Wire.Error ({ message; _ } as e) when String.length message > 0 ->
    [ Wire.Error { e with message = "" } ]
  | _ -> []

let frame_to_string = Wire.frame_to_string

(* ---- round-trip -------------------------------------------------- *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let roundtrip (f : Wire.frame) : (unit, string) result =
  match Wire.encode f with
  | exception Invalid_argument msg ->
    Error (Printf.sprintf "generated frame rejected by encoder: %s" msg)
  | buf ->
    let len = Bytes.length buf in
    let* () =
      if Wire.encoded_length f = len then Ok ()
      else
        Error
          (Printf.sprintf "encoded_length %d but encode produced %d bytes"
             (Wire.encoded_length f) len)
    in
    let* () =
      match Wire.decode buf ~pos:0 ~len with
      | Wire.Frame (f', used) ->
        if used <> len then
          Error (Printf.sprintf "decode consumed %d of %d bytes" used len)
        else if not (Wire.frame_equal f f') then
          Error
            (Printf.sprintf "round trip not identity: got %s"
               (Wire.frame_to_string f'))
        else Ok ()
      | Wire.Need n -> Error (Printf.sprintf "decode wants %d bytes" n)
      | Wire.Corrupt e ->
        Error
          (Printf.sprintf "own encoding rejected at %d: %s" e.Wire.offset
             e.Wire.reason)
      | exception e ->
        Error ("decode raised " ^ Printexc.to_string e)
    in
    (* position independence: the same frame written mid-buffer between
       sentinel bytes decodes identically *)
    let padded = Bytes.make (len + 7) '\xAA' in
    let stop = Wire.encode_into f padded ~pos:3 in
    let* () =
      if stop <> 3 + len then
        Error (Printf.sprintf "encode_into returned %d, expected %d" stop (3 + len))
      else
        match Wire.decode padded ~pos:3 ~len with
        | Wire.Frame (f', used) when used = len && Wire.frame_equal f f' ->
          Ok ()
        | _ -> Error "mid-buffer decode disagrees with pos-0 decode"
    in
    (* every strict prefix is incomplete, and says exactly how much it
       wants: the header once it has one, the header itself before *)
    let check_prefix p =
      match Wire.decode buf ~pos:0 ~len:p with
      | Wire.Need n ->
        let want = if p < Wire.header_size then Wire.header_size else len in
        if n = want then Ok ()
        else
          Error
            (Printf.sprintf "prefix %d/%d: Need %d, expected Need %d" p len n
               want)
      | Wire.Frame _ ->
        Error (Printf.sprintf "prefix %d/%d decoded a whole frame" p len)
      | Wire.Corrupt e ->
        Error
          (Printf.sprintf "prefix %d/%d corrupt: %s" p len e.Wire.reason)
      | exception e ->
        Error
          (Printf.sprintf "prefix %d/%d raised %s" p len (Printexc.to_string e))
    in
    let* () = check_prefix (len - 1) in
    let* () = check_prefix (Wire.header_size) in
    check_prefix 2

(* ---- mutation totality ------------------------------------------- *)

type mutation_kind = Flip | Truncate | Garbage

type mutation = {
  frame : Wire.frame;
  kind : mutation_kind;
  pos : int;
  byte : int;
}

let gen_mutation : mutation Prop.Gen.t =
 fun rng ->
  let frame = gen_frame rng in
  let kind = choose [ Flip; Truncate; Garbage ] rng in
  let pos = int_range 0 9999 rng in
  let byte = int_range 0 255 rng in
  { frame; kind; pos; byte }

let shrink_mutation m =
  List.map (fun frame -> { m with frame }) (shrink_frame m.frame)
  @ (if m.pos > 0 then [ { m with pos = m.pos / 2 } ] else [])

let mutation_to_string m =
  Printf.sprintf "%s of [%s] pos=%d byte=%d"
    (match m.kind with
    | Flip -> "flip"
    | Truncate -> "truncate"
    | Garbage -> "garbage")
    (Wire.frame_to_string m.frame)
    m.pos m.byte

(* the mutated byte stream for a case *)
let mutate m =
  let buf = Wire.encode m.frame in
  let len = Bytes.length buf in
  match m.kind with
  | Flip ->
    let b = Bytes.copy buf in
    let i = m.pos mod len in
    let mask = if m.byte land 0xFF = 0 then 0x80 else m.byte land 0xFF in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
    b
  | Truncate -> Bytes.sub buf 0 (m.pos mod len)
  | Garbage ->
    let n = m.pos mod 64 in
    Bytes.init n (fun i -> Char.chr (((m.byte + 1) * 131 + (i * 7)) land 0xFF))

let progress_equal a b =
  match (a, b) with
  | Wire.Frame (fa, ua), Wire.Frame (fb, ub) -> Wire.frame_equal fa fb && ua = ub
  | Wire.Need na, Wire.Need nb -> na = nb
  | Wire.Corrupt ea, Wire.Corrupt eb ->
    ea.Wire.offset = eb.Wire.offset && ea.Wire.code = eb.Wire.code
  | _ -> false

let classify limits data ~pos ~len =
  match Wire.decode ~limits data ~pos ~len with
  | p -> Ok p
  | exception e ->
    Error (Printf.sprintf "decode raised %s" (Printexc.to_string e))

let mutation_total (m : mutation) : (unit, string) result =
  let data = mutate m in
  let len = Bytes.length data in
  let limits = gen_limits in
  let* p = classify limits data ~pos:0 ~len in
  let* () =
    match p with
    | Wire.Frame (f', used) ->
      if used < Wire.header_size || used > len then
        Error
          (Printf.sprintf "decoded frame claims %d bytes of %d offered" used
             len)
      else (
        (* whatever decodes must itself be inside the wire domain *)
        match Wire.encoded_length f' with
        | n ->
          if n = used then Ok ()
          else
            Error
              (Printf.sprintf
                 "decoded frame re-encodes to %d bytes but consumed %d" n used)
        | exception Invalid_argument msg ->
          Error
            (Printf.sprintf "decoded an out-of-domain frame (%s): %s" msg
               (Wire.frame_to_string f')))
    | Wire.Need n ->
      if n <= len then
        Error (Printf.sprintf "Need %d but %d bytes were offered" n len)
      else if n > Wire.header_size + limits.Wire.max_frame then
        Error (Printf.sprintf "Need %d exceeds the frame limit" n)
      else Ok ()
    | Wire.Corrupt e ->
      if e.Wire.offset < 0 || e.Wire.offset > len then
        Error
          (Printf.sprintf "corrupt offset %d outside slice of %d"
             e.Wire.offset len)
      else Ok ()
  in
  (* slice discipline: surrounding bytes must not influence the result
     (a decoder that reads past the slice would see the 0xEE fence) *)
  let fenced = Bytes.make (len + 12) '\xEE' in
  Bytes.blit data 0 fenced 5 len;
  let* p' = classify limits fenced ~pos:5 ~len in
  if progress_equal p p' then Ok ()
  else Error "decode result depends on bytes outside the slice"
