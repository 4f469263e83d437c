(* Golden corpus for overlay-wire/1: committed .bin fixtures pin the
   byte-level layout, so a codec edit that silently changes the format
   fails loudly here.  Valid fixtures must both decode to the expected
   frame and be byte-identical to re-encoding it; corrupt fixtures must
   produce exactly the pinned (offset, code) rejection.

   Regeneration (after an intentional format change — bump the protocol
   version and update PROTOCOL.md too):
     OVERLAY_WIRE_REGEN=$PWD/test/data/wire dune exec test/test_main.exe -- test wire *)

(* under [dune runtest] the cwd is the test sandbox (fixtures at
   data/wire); under [dune exec] from the repo root they sit at
   test/data/wire *)
let fixtures_dir =
  match Sys.getenv_opt "OVERLAY_WIRE_REGEN" with
  | Some dir -> dir
  | None ->
    let local = Filename.concat "data" "wire" in
    if Sys.file_exists local then local
    else Filename.concat "test" local

let golden : (string * Wire.frame) list =
  [
    ("hello", Wire.Hello { version = 1 });
    ( "hello_ack",
      Wire.Hello_ack { version = 1; limits = Wire.default_limits } );
    ( "session_join",
      Wire.Session_join
        { at = 12.5; id = 7; demand = 100.0; members = [| 0; 5; 9 |] } );
    ("session_leave", Wire.Session_leave { at = 20.25; id = 7 });
    ("demand_change", Wire.Demand_change { at = 30.5; id = 7; demand = 250.0 });
    ( "capacity_change",
      Wire.Capacity_change { at = 40.125; edge = 14; capacity = 80.0 } );
    ( "solve_report",
      Wire.Solve_report
        {
          seq = 3;
          at = 12.5;
          k = 2;
          warm = true;
          certified = true;
          attempts = 1;
          objective = 1234.5;
          solve_s = 0.015625;
          total_s = 0.03125;
        } );
    ("metrics_pull", Wire.Metrics_pull { format = Wire.Prometheus });
    ( "metrics_reply",
      Wire.Metrics_reply { format = Wire.Json; body = "{\"counters\":{}}" } );
    ( "error",
      Wire.Error { code = Wire.Bad_event; message = "unknown session id 9" } );
    ("shutdown", Wire.Shutdown);
  ]

(* a join whose member-count field claims 200 members while the frame
   carries 3 — internal truncation with a consistent outer length *)
let corrupt_truncated_bytes () =
  let buf =
    Wire.encode
      (Wire.Session_join
         { at = 1.0; id = 1; demand = 1.0; members = [| 0; 1; 2 |] })
  in
  (* count field sits after header(4) + tag(1) + at(8) + id(4) + demand(8) *)
  Bytes.set_int32_be buf 25 200l;
  buf

let corrupt_unknown_tag_bytes () =
  let buf = Bytes.create 5 in
  Bytes.set_int32_be buf 0 1l;
  Bytes.set_uint8 buf 4 0x7E;
  buf

let corrupt_oversized_bytes () =
  let buf = Bytes.create 4 in
  Bytes.set_int32_be buf 0 0xFFFFFFFFl;
  buf

(* name, bytes, expected (offset, code) from decode *)
let corrupt : (string * (unit -> Bytes.t) * int * Wire.error_code) list =
  [
    ("corrupt_truncated", corrupt_truncated_bytes, 29, Wire.Protocol_error);
    ("corrupt_unknown_tag", corrupt_unknown_tag_bytes, 4, Wire.Unknown_tag);
    ("corrupt_oversized", corrupt_oversized_bytes, 0, Wire.Limit_exceeded);
  ]

let fixture_path name = Filename.concat fixtures_dir (name ^ ".bin")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let buf = Bytes.create n in
      really_input ic buf 0 n;
      buf)

let write_file path buf =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_bytes oc buf)

(* regeneration runs at load, before Alcotest, so the comparison tests
   below then verify what was just written *)
let () =
  if Sys.getenv_opt "OVERLAY_WIRE_REGEN" <> None then begin
    List.iter
      (fun (name, frame) -> write_file (fixture_path name) (Wire.encode frame))
      golden;
    List.iter
      (fun (name, bytes, _, _) -> write_file (fixture_path name) (bytes ()))
      corrupt;
    Printf.printf "regenerated %d wire fixtures in %s\n"
      (List.length golden + List.length corrupt)
      fixtures_dir
  end

let hex buf =
  String.concat " "
    (List.init (Bytes.length buf) (fun i ->
         Printf.sprintf "%02x" (Char.code (Bytes.get buf i))))

let test_golden_fixtures () =
  List.iter
    (fun (name, frame) ->
      let file = read_file (fixture_path name) in
      let encoded = Wire.encode frame in
      if not (Bytes.equal encoded file) then
        Alcotest.failf
          "%s.bin no longer matches the overlay-wire/1 layout\n\
           fixture: %s\n\
           encoder: %s"
          name (hex file) (hex encoded);
      match Wire.decode file ~pos:0 ~len:(Bytes.length file) with
      | Wire.Frame (f, used) ->
        Alcotest.(check int) (name ^ " consumes whole file") (Bytes.length file) used;
        if not (Wire.frame_equal f frame) then
          Alcotest.failf "%s.bin decoded to %s" name (Wire.frame_to_string f)
      | Wire.Need n -> Alcotest.failf "%s.bin: decoder wants %d bytes" name n
      | Wire.Corrupt e -> Alcotest.failf "%s.bin rejected: %s" name e.Wire.reason)
    golden

let test_corrupt_fixtures () =
  List.iter
    (fun (name, _, offset, code) ->
      let file = read_file (fixture_path name) in
      match Wire.decode file ~pos:0 ~len:(Bytes.length file) with
      | Wire.Corrupt e ->
        Alcotest.(check int) (name ^ " offset") offset e.Wire.offset;
        Alcotest.(check string)
          (name ^ " code")
          (Wire.error_code_name code)
          (Wire.error_code_name e.Wire.code)
      | Wire.Frame (f, _) ->
        Alcotest.failf "%s.bin decoded to %s" name (Wire.frame_to_string f)
      | Wire.Need n -> Alcotest.failf "%s.bin: decoder wants %d bytes" name n)
    corrupt

(* --- unit decode behaviour (not fixture-backed) ----------------------- *)

let test_streaming_need () =
  (match Wire.decode Bytes.empty ~pos:0 ~len:0 with
  | Wire.Need n -> Alcotest.(check int) "empty wants a header" Wire.header_size n
  | _ -> Alcotest.fail "empty input must be Need");
  let buf = Wire.encode (Wire.Session_leave { at = 5.0; id = 3 }) in
  match Wire.decode buf ~pos:0 ~len:Wire.header_size with
  | Wire.Need n ->
    Alcotest.(check int) "header-only wants the body" (Bytes.length buf) n
  | _ -> Alcotest.fail "header-only input must be Need"

let test_zero_body_rejected () =
  let buf = Bytes.make 4 '\000' in
  match Wire.decode buf ~pos:0 ~len:4 with
  | Wire.Corrupt e -> Alcotest.(check int) "offset" 0 e.Wire.offset
  | _ -> Alcotest.fail "zero body length must be Corrupt"

let test_bad_flag_rejected () =
  let buf =
    Wire.encode
      (Wire.Solve_report
         {
           seq = 1; at = 0.0; k = 1; warm = false; certified = true;
           attempts = 0; objective = 0.0; solve_s = 0.0; total_s = 0.0;
         })
  in
  (* warm flag byte: header(4) + tag(1) + seq(8) + at(8) + k(4) *)
  Bytes.set_uint8 buf 25 2;
  match Wire.decode buf ~pos:0 ~len:(Bytes.length buf) with
  | Wire.Corrupt e ->
    Alcotest.(check int) "flag offset" 25 e.Wire.offset;
    Alcotest.(check string) "code" "protocol_error"
      (Wire.error_code_name e.Wire.code)
  | _ -> Alcotest.fail "flag byte 2 must be Corrupt"

let test_nonfinite_float_rejected () =
  let buf =
    Wire.encode (Wire.Demand_change { at = 1.0; id = 2; demand = 3.0 })
  in
  (* demand: header(4) + tag(1) + at(8) + id(4) *)
  Bytes.set_int64_be buf 17 (Int64.bits_of_float Float.nan);
  (match Wire.decode buf ~pos:0 ~len:(Bytes.length buf) with
  | Wire.Corrupt e -> Alcotest.(check int) "NaN offset" 17 e.Wire.offset
  | _ -> Alcotest.fail "NaN demand must be Corrupt");
  Bytes.set_int64_be buf 17 (Int64.bits_of_float (-2.0));
  match Wire.decode buf ~pos:0 ~len:(Bytes.length buf) with
  | Wire.Corrupt _ -> ()
  | _ -> Alcotest.fail "negative demand must be Corrupt"

(* capacity 0 is a link taken down: legal on the wire, both ways *)
let test_zero_capacity_roundtrips () =
  let f = Wire.Capacity_change { at = 2.0; edge = 38; capacity = 0.0 } in
  let buf = Wire.encode f in
  match Wire.decode buf ~pos:0 ~len:(Bytes.length buf) with
  | Wire.Frame (g, used) ->
    Alcotest.(check int) "whole frame used" (Bytes.length buf) used;
    Alcotest.(check bool) "frame round-trips" true (Wire.frame_equal f g)
  | _ -> Alcotest.fail "capacity-0 frame did not decode"

let test_back_to_back_frames () =
  let a = Wire.encode (Wire.Session_leave { at = 1.0; id = 1 }) in
  let b = Wire.encode (Wire.Metrics_pull { format = Wire.Json }) in
  let buf = Bytes.cat a b in
  match Wire.decode buf ~pos:0 ~len:(Bytes.length buf) with
  | Wire.Frame (f1, used) -> (
    Alcotest.(check int) "first frame length" (Bytes.length a) used;
    Alcotest.(check bool) "first frame" true
      (Wire.frame_equal f1 (Wire.Session_leave { at = 1.0; id = 1 }));
    match Wire.decode buf ~pos:used ~len:(Bytes.length buf - used) with
    | Wire.Frame (f2, used2) ->
      Alcotest.(check int) "second frame length" (Bytes.length b) used2;
      Alcotest.(check bool) "second frame" true
        (Wire.frame_equal f2 (Wire.Metrics_pull { format = Wire.Json }))
    | _ -> Alcotest.fail "second frame did not decode")
  | _ -> Alcotest.fail "first frame did not decode"

let test_encoder_rejects_invalid () =
  let expect_invalid name f =
    match Wire.encoded_length f with
    | exception Invalid_argument _ -> ()
    | n -> Alcotest.failf "%s encoded to %d bytes instead of raising" name n
  in
  expect_invalid "1-member join"
    (Wire.Session_join { at = 0.0; id = 1; demand = 1.0; members = [| 0 |] });
  expect_invalid "negative demand"
    (Wire.Demand_change { at = 0.0; id = 1; demand = -1.0 });
  expect_invalid "NaN capacity"
    (Wire.Capacity_change { at = 0.0; edge = 1; capacity = Float.nan });
  expect_invalid "negative capacity"
    (Wire.Capacity_change { at = 0.0; edge = 1; capacity = -1.0 });
  expect_invalid "negative id" (Wire.Session_leave { at = 0.0; id = -1 });
  expect_invalid "oversized u32 id"
    (Wire.Session_leave { at = 0.0; id = 0x1_0000_0000 });
  expect_invalid "negative at" (Wire.Session_leave { at = -1.0; id = 0 })

let test_error_code_table () =
  List.iter
    (fun code ->
      match Wire.error_code_of_int (Wire.error_code_to_int code) with
      | Some c ->
        Alcotest.(check string) "code survives the table"
          (Wire.error_code_name code) (Wire.error_code_name c)
      | None -> Alcotest.failf "code %s lost" (Wire.error_code_name code))
    [
      Wire.Protocol_error; Wire.Unknown_tag; Wire.Limit_exceeded;
      Wire.Bad_event; Wire.Unsupported_version; Wire.Not_ready;
      Wire.Shutting_down; Wire.Internal;
    ];
  Alcotest.(check bool) "0 unknown" true (Wire.error_code_of_int 0 = None);
  Alcotest.(check bool) "9 unknown" true (Wire.error_code_of_int 9 = None)

let suite =
  [
    Alcotest.test_case "golden fixtures pin the layout" `Quick
      test_golden_fixtures;
    Alcotest.test_case "corrupt fixtures pin the rejections" `Quick
      test_corrupt_fixtures;
    Alcotest.test_case "streaming Need amounts" `Quick test_streaming_need;
    Alcotest.test_case "zero body length rejected" `Quick
      test_zero_body_rejected;
    Alcotest.test_case "non-boolean flag rejected" `Quick
      test_bad_flag_rejected;
    Alcotest.test_case "non-finite floats rejected" `Quick
      test_nonfinite_float_rejected;
    Alcotest.test_case "back-to-back frames decode independently" `Quick
      test_back_to_back_frames;
    Alcotest.test_case "encoder rejects out-of-domain frames" `Quick
      test_encoder_rejects_invalid;
    Alcotest.test_case "error code table round-trips" `Quick
      test_error_code_table;
    Alcotest.test_case "capacity 0 round-trips" `Quick
      test_zero_capacity_roundtrips;
  ]
