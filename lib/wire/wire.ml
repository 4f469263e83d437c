(* overlay-wire/1 codec.  See wire.mli for the contract and PROTOCOL.md
   for the byte-level tables.  The decoder is written as a set of
   cursor readers that raise an internal exception carrying the fault
   offset; [decode] catches it at the boundary, so no input — valid,
   truncated, mutated or adversarial — can escape as an OCaml
   exception or as a read outside the caller's slice. *)

type limits = { max_frame : int; max_sessions : int; max_members : int }

let default_limits =
  { max_frame = 1 lsl 20; max_sessions = 4096; max_members = 65536 }

let version = 1

type error_code =
  | Protocol_error
  | Unknown_tag
  | Limit_exceeded
  | Bad_event
  | Unsupported_version
  | Not_ready
  | Shutting_down
  | Internal

let error_code_to_int = function
  | Protocol_error -> 1
  | Unknown_tag -> 2
  | Limit_exceeded -> 3
  | Bad_event -> 4
  | Unsupported_version -> 5
  | Not_ready -> 6
  | Shutting_down -> 7
  | Internal -> 8

let error_code_of_int = function
  | 1 -> Some Protocol_error
  | 2 -> Some Unknown_tag
  | 3 -> Some Limit_exceeded
  | 4 -> Some Bad_event
  | 5 -> Some Unsupported_version
  | 6 -> Some Not_ready
  | 7 -> Some Shutting_down
  | 8 -> Some Internal
  | _ -> None

let error_code_name = function
  | Protocol_error -> "protocol_error"
  | Unknown_tag -> "unknown_tag"
  | Limit_exceeded -> "limit_exceeded"
  | Bad_event -> "bad_event"
  | Unsupported_version -> "unsupported_version"
  | Not_ready -> "not_ready"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"

type metrics_format = Prometheus | Json

type frame =
  | Hello of { version : int }
  | Hello_ack of { version : int; limits : limits }
  | Session_join of { at : float; id : int; demand : float; members : int array }
  | Session_leave of { at : float; id : int }
  | Demand_change of { at : float; id : int; demand : float }
  | Capacity_change of { at : float; edge : int; capacity : float }
  | Solve_report of {
      seq : int;
      at : float;
      k : int;
      warm : bool;
      certified : bool;
      attempts : int;
      objective : float;
      solve_s : float;
      total_s : float;
    }
  | Metrics_pull of { format : metrics_format }
  | Metrics_reply of { format : metrics_format; body : string }
  | Error of { code : error_code; message : string }
  | Shutdown

(* tag bytes: 0x0x handshake, 0x1x events, 0x2x query/report, 0x3x
   control.  Pinned by the golden corpus in test/data/wire. *)
let tag_hello = 0x01
let tag_hello_ack = 0x02
let tag_session_join = 0x10
let tag_session_leave = 0x11
let tag_demand_change = 0x12
let tag_capacity_change = 0x13
let tag_solve_report = 0x20
let tag_metrics_pull = 0x21
let tag_metrics_reply = 0x22
let tag_error = 0x30
let tag_shutdown = 0x3f

let tag_of_frame = function
  | Hello _ -> tag_hello
  | Hello_ack _ -> tag_hello_ack
  | Session_join _ -> tag_session_join
  | Session_leave _ -> tag_session_leave
  | Demand_change _ -> tag_demand_change
  | Capacity_change _ -> tag_capacity_change
  | Solve_report _ -> tag_solve_report
  | Metrics_pull _ -> tag_metrics_pull
  | Metrics_reply _ -> tag_metrics_reply
  | Error _ -> tag_error
  | Shutdown -> tag_shutdown

let frame_name = function
  | Hello _ -> "hello"
  | Hello_ack _ -> "hello_ack"
  | Session_join _ -> "session_join"
  | Session_leave _ -> "session_leave"
  | Demand_change _ -> "demand_change"
  | Capacity_change _ -> "capacity_change"
  | Solve_report _ -> "solve_report"
  | Metrics_pull _ -> "metrics_pull"
  | Metrics_reply _ -> "metrics_reply"
  | Error _ -> "error"
  | Shutdown -> "shutdown"

(* the 4-byte magic opening a hello payload: rejects random TCP
   clients before any further parsing *)
let magic = "OVW1"

let frame_equal a b =
  match (a, b) with
  | Hello { version = va }, Hello { version = vb } -> va = vb
  | Hello_ack { version = va; limits = la }, Hello_ack { version = vb; limits = lb }
    ->
    va = vb
    && la.max_frame = lb.max_frame
    && la.max_sessions = lb.max_sessions
    && la.max_members = lb.max_members
  | Session_join a, Session_join b ->
    Float.equal a.at b.at && a.id = b.id
    && Float.equal a.demand b.demand
    && Array.length a.members = Array.length b.members
    && (let eq = ref true in
        Array.iteri (fun i m -> if m <> b.members.(i) then eq := false) a.members;
        !eq)
  | Session_leave a, Session_leave b -> Float.equal a.at b.at && a.id = b.id
  | Demand_change a, Demand_change b ->
    Float.equal a.at b.at && a.id = b.id && Float.equal a.demand b.demand
  | Capacity_change a, Capacity_change b ->
    Float.equal a.at b.at && a.edge = b.edge
    && Float.equal a.capacity b.capacity
  | Solve_report a, Solve_report b ->
    a.seq = b.seq && Float.equal a.at b.at && a.k = b.k && a.warm = b.warm
    && a.certified = b.certified && a.attempts = b.attempts
    && Float.equal a.objective b.objective
    && Float.equal a.solve_s b.solve_s
    && Float.equal a.total_s b.total_s
  | Metrics_pull a, Metrics_pull b -> a.format = b.format
  | Metrics_reply a, Metrics_reply b ->
    a.format = b.format && String.equal a.body b.body
  | Error a, Error b -> a.code = b.code && String.equal a.message b.message
  | Shutdown, Shutdown -> true
  | _ -> false

let frame_to_string f =
  match f with
  | Hello { version } -> Printf.sprintf "hello v%d" version
  | Hello_ack { version; limits } ->
    Printf.sprintf "hello_ack v%d max_frame=%d max_sessions=%d max_members=%d"
      version limits.max_frame limits.max_sessions limits.max_members
  | Session_join { at; id; demand; members } ->
    Printf.sprintf "session_join at=%g id=%d demand=%g members=%s" at id demand
      (String.concat ","
         (Array.to_list (Array.map string_of_int members)))
  | Session_leave { at; id } -> Printf.sprintf "session_leave at=%g id=%d" at id
  | Demand_change { at; id; demand } ->
    Printf.sprintf "demand_change at=%g id=%d demand=%g" at id demand
  | Capacity_change { at; edge; capacity } ->
    Printf.sprintf "capacity_change at=%g edge=%d capacity=%g" at edge capacity
  | Solve_report { seq; at; k; warm; certified; attempts; objective; solve_s;
                   total_s } ->
    Printf.sprintf
      "solve_report seq=%d at=%g k=%d warm=%b certified=%b attempts=%d \
       objective=%.17g solve_s=%g total_s=%g"
      seq at k warm certified attempts objective solve_s total_s
  | Metrics_pull { format } ->
    Printf.sprintf "metrics_pull %s"
      (match format with Prometheus -> "prometheus" | Json -> "json")
  | Metrics_reply { format; body } ->
    Printf.sprintf "metrics_reply %s (%d bytes)"
      (match format with Prometheus -> "prometheus" | Json -> "json")
      (String.length body)
  | Error { code; message } ->
    Printf.sprintf "error %s %S" (error_code_name code) message
  | Shutdown -> "shutdown"

type decode_error = { offset : int; code : error_code; reason : string }

type progress = Frame of frame * int | Need of int | Corrupt of decode_error

let header_size = 4

(* ---- decoding ---------------------------------------------------- *)

exception Reject of decode_error

let reject ~offset ~code fmt =
  Printf.ksprintf (fun reason -> raise (Reject { offset; code; reason })) fmt

(* A cursor over the body slice.  [base] is the caller's [pos] (error
   offsets are relative to it), [stop] the absolute end of the body. *)
type cursor = { buf : Bytes.t; base : int; mutable at : int; stop : int }

let off c = c.at - c.base

let need c n what =
  if c.stop - c.at < n then
    reject ~offset:(off c) ~code:Protocol_error "%s: truncated body" what

let u8 c what =
  need c 1 what;
  let v = Char.code (Bytes.unsafe_get c.buf c.at) in
  c.at <- c.at + 1;
  v

let u16 c what =
  need c 2 what;
  let v = Bytes.get_uint16_be c.buf c.at in
  c.at <- c.at + 2;
  v

let u32 c what =
  need c 4 what;
  let v = Int32.to_int (Bytes.get_int32_be c.buf c.at) land 0xFFFFFFFF in
  c.at <- c.at + 4;
  v

let u62 c what =
  need c 8 what;
  let v = Bytes.get_int64_be c.buf c.at in
  if Int64.compare v 0L < 0 || Int64.compare v 0x3FFF_FFFF_FFFF_FFFFL > 0 then
    reject ~offset:(off c) ~code:Protocol_error "%s: u64 %Ld outside [0, 2^62)"
      what v;
  c.at <- c.at + 8;
  Int64.to_int v

let f64 c ~what ~lo =
  need c 8 what;
  let v = Int64.float_of_bits (Bytes.get_int64_be c.buf c.at) in
  if not (Float.is_finite v) then
    reject ~offset:(off c) ~code:Protocol_error "%s: non-finite float" what;
  if v < lo || (lo > 0.0 && v = 0.0) then
    reject ~offset:(off c) ~code:Protocol_error "%s: %g below minimum %g" what
      v lo;
  c.at <- c.at + 8;
  v

(* > 0 floats (demands) *)
let f64_pos c ~what =
  need c 8 what;
  let v = Int64.float_of_bits (Bytes.get_int64_be c.buf c.at) in
  if not (Float.is_finite v) || v <= 0.0 then
    reject ~offset:(off c) ~code:Protocol_error "%s: not a positive float" what;
  c.at <- c.at + 8;
  v

let flag c what =
  let v = u8 c what in
  if v > 1 then
    reject ~offset:(off c - 1) ~code:Protocol_error "%s: flag byte %d not 0/1"
      what v;
  v = 1

let metrics_format_byte c =
  let v = u8 c "metrics format" in
  match v with
  | 0 -> Prometheus
  | 1 -> Json
  | _ ->
    reject ~offset:(off c - 1) ~code:Protocol_error
      "metrics format byte %d not 0/1" v

let str c what =
  let n = u32 c what in
  if c.stop - c.at < n then
    reject ~offset:(off c - 4) ~code:Protocol_error
      "%s: declared length %d exceeds remaining %d bytes" what n
      (c.stop - c.at);
  let s = Bytes.sub_string c.buf c.at n in
  c.at <- c.at + n;
  s

let finish c frame =
  if c.at <> c.stop then
    reject ~offset:(off c) ~code:Protocol_error
      "%d trailing bytes after %s payload" (c.stop - c.at) (frame_name frame);
  frame

let decode_body limits buf ~pos ~body_start ~body_len =
  let c = { buf; base = pos; at = body_start; stop = body_start + body_len } in
  let tag = u8 c "tag" in
  if tag = tag_hello then begin
    need c 4 "hello magic";
    for i = 0 to 3 do
      if Bytes.get c.buf (c.at + i) <> magic.[i] then
        reject ~offset:(off c + i) ~code:Protocol_error
          "hello magic mismatch at byte %d" i
    done;
    c.at <- c.at + 4;
    let version = u16 c "hello version" in
    finish c (Hello { version })
  end
  else if tag = tag_hello_ack then begin
    let version = u16 c "hello_ack version" in
    let max_frame = u32 c "hello_ack max_frame" in
    let max_sessions = u32 c "hello_ack max_sessions" in
    let max_members = u32 c "hello_ack max_members" in
    if max_frame < 1 || max_sessions < 1 || max_members < 2 then
      reject ~offset:(off c - 12) ~code:Protocol_error
        "hello_ack advertises degenerate limits %d/%d/%d" max_frame
        max_sessions max_members;
    finish c
      (Hello_ack
         { version; limits = { max_frame; max_sessions; max_members } })
  end
  else if tag = tag_session_join then begin
    let at = f64 c ~what:"join at" ~lo:0.0 in
    let id = u32 c "join id" in
    let demand = f64_pos c ~what:"join demand" in
    let n_off = off c in
    let n = u32 c "join member count" in
    if n < 2 then
      reject ~offset:n_off ~code:Protocol_error
        "join with %d members (a session needs a source and a receiver)" n;
    if n > limits.max_members then
      reject ~offset:n_off ~code:Limit_exceeded
        "join with %d members exceeds max_members %d" n limits.max_members;
    need c (4 * n) "join members";
    let members = Array.init n (fun i ->
        Int32.to_int (Bytes.get_int32_be c.buf (c.at + (4 * i)))
        land 0xFFFFFFFF)
    in
    c.at <- c.at + (4 * n);
    finish c (Session_join { at; id; demand; members })
  end
  else if tag = tag_session_leave then begin
    let at = f64 c ~what:"leave at" ~lo:0.0 in
    let id = u32 c "leave id" in
    finish c (Session_leave { at; id })
  end
  else if tag = tag_demand_change then begin
    let at = f64 c ~what:"demand_change at" ~lo:0.0 in
    let id = u32 c "demand_change id" in
    let demand = f64_pos c ~what:"demand_change demand" in
    finish c (Demand_change { at; id; demand })
  end
  else if tag = tag_capacity_change then begin
    let at = f64 c ~what:"capacity_change at" ~lo:0.0 in
    let edge = u32 c "capacity_change edge" in
    (* 0 is a link taken down *)
    let capacity = f64 c ~what:"capacity_change capacity" ~lo:0.0 in
    finish c (Capacity_change { at; edge; capacity })
  end
  else if tag = tag_solve_report then begin
    let seq = u62 c "report seq" in
    let at = f64 c ~what:"report at" ~lo:0.0 in
    let k = u32 c "report k" in
    let warm = flag c "report warm" in
    let certified = flag c "report certified" in
    let attempts = u16 c "report attempts" in
    let objective = f64 c ~what:"report objective" ~lo:0.0 in
    let solve_s = f64 c ~what:"report solve_s" ~lo:0.0 in
    let total_s = f64 c ~what:"report total_s" ~lo:0.0 in
    finish c
      (Solve_report
         { seq; at; k; warm; certified; attempts; objective; solve_s; total_s })
  end
  else if tag = tag_metrics_pull then begin
    let format = metrics_format_byte c in
    finish c (Metrics_pull { format })
  end
  else if tag = tag_metrics_reply then begin
    let format = metrics_format_byte c in
    let body = str c "metrics body" in
    finish c (Metrics_reply { format; body })
  end
  else if tag = tag_error then begin
    let code_off = off c in
    let code_raw = u16 c "error code" in
    let code =
      match error_code_of_int code_raw with
      | Some code -> code
      | None ->
        reject ~offset:code_off ~code:Protocol_error
          "unknown error code %d (version-1 codes are 1..8)" code_raw
    in
    let message = str c "error message" in
    finish c (Error { code; message })
  end
  else if tag = tag_shutdown then finish c Shutdown
  else
    reject ~offset:(off c - 1) ~code:Unknown_tag
      "unknown frame tag 0x%02x" tag

let decode ?(limits = default_limits) buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg
      (Printf.sprintf "Wire.decode: slice [%d, %d+%d) outside buffer of %d"
         pos pos len (Bytes.length buf));
  if len < header_size then Need header_size
  else begin
    let body_len =
      Int32.to_int (Bytes.get_int32_be buf pos) land 0xFFFFFFFF
    in
    if body_len < 1 then
      Corrupt
        { offset = 0; code = Protocol_error;
          reason = "frame header declares an empty body" }
    else if body_len > limits.max_frame then
      Corrupt
        { offset = 0; code = Limit_exceeded;
          reason =
            Printf.sprintf "frame body of %d bytes exceeds max_frame %d"
              body_len limits.max_frame }
    else if len < header_size + body_len then Need (header_size + body_len)
    else
      match
        decode_body limits buf ~pos ~body_start:(pos + header_size) ~body_len
      with
      | frame -> Frame (frame, header_size + body_len)
      | exception Reject e -> Corrupt e
  end

(* ---- encoding ---------------------------------------------------- *)

let check_u32 what v =
  if v < 0 || v > 0xFFFFFFFF then
    invalid_arg (Printf.sprintf "Wire.encode: %s %d outside u32" what v)

let check_u16 what v =
  if v < 0 || v > 0xFFFF then
    invalid_arg (Printf.sprintf "Wire.encode: %s %d outside u16" what v)

let check_time what v =
  if not (Float.is_finite v) || v < 0.0 then
    invalid_arg (Printf.sprintf "Wire.encode: %s %g not a finite time" what v)

let check_pos what v =
  if not (Float.is_finite v) || v <= 0.0 then
    invalid_arg (Printf.sprintf "Wire.encode: %s %g not finite positive" what v)

let check_nonneg what v =
  if not (Float.is_finite v) || v < 0.0 then
    invalid_arg
      (Printf.sprintf "Wire.encode: %s %g not finite non-negative" what v)

let check_seq v =
  if v < 0 then invalid_arg (Printf.sprintf "Wire.encode: seq %d negative" v)

let validate = function
  | Hello { version } -> check_u16 "hello version" version
  | Hello_ack { version; limits } ->
    check_u16 "hello_ack version" version;
    check_u32 "max_frame" limits.max_frame;
    check_u32 "max_sessions" limits.max_sessions;
    check_u32 "max_members" limits.max_members;
    if limits.max_frame < 1 || limits.max_sessions < 1 || limits.max_members < 2
    then invalid_arg "Wire.encode: hello_ack limits degenerate"
  | Session_join { at; id; demand; members } ->
    check_time "join at" at;
    check_u32 "join id" id;
    check_pos "join demand" demand;
    if Array.length members < 2 then
      invalid_arg "Wire.encode: join needs at least 2 members";
    check_u32 "join member count" (Array.length members);
    Array.iter (check_u32 "join member") members
  | Session_leave { at; id } ->
    check_time "leave at" at;
    check_u32 "leave id" id
  | Demand_change { at; id; demand } ->
    check_time "demand_change at" at;
    check_u32 "demand_change id" id;
    check_pos "demand_change demand" demand
  | Capacity_change { at; edge; capacity } ->
    check_time "capacity_change at" at;
    check_u32 "capacity_change edge" edge;
    check_nonneg "capacity_change capacity" capacity
  | Solve_report { seq; at; k; attempts; objective; solve_s; total_s; _ } ->
    check_seq seq;
    check_time "report at" at;
    check_u32 "report k" k;
    check_u16 "report attempts" attempts;
    check_nonneg "report objective" objective;
    check_nonneg "report solve_s" solve_s;
    check_nonneg "report total_s" total_s
  | Metrics_pull _ -> ()
  | Metrics_reply { body; _ } -> check_u32 "metrics body length" (String.length body)
  | Error { message; _ } -> check_u32 "error message length" (String.length message)
  | Shutdown -> ()

let payload_length = function
  | Hello _ -> 4 + 2
  | Hello_ack _ -> 2 + 4 + 4 + 4
  | Session_join { members; _ } -> 8 + 4 + 8 + 4 + (4 * Array.length members)
  | Session_leave _ -> 8 + 4
  | Demand_change _ -> 8 + 4 + 8
  | Capacity_change _ -> 8 + 4 + 8
  | Solve_report _ -> 8 + 8 + 4 + 1 + 1 + 2 + 8 + 8 + 8
  | Metrics_pull _ -> 1
  | Metrics_reply { body; _ } -> 1 + 4 + String.length body
  | Error { message; _ } -> 2 + 4 + String.length message
  | Shutdown -> 0

let encoded_length f =
  validate f;
  header_size + 1 + payload_length f

let encode_into f buf ~pos =
  let total = encoded_length f in
  if pos < 0 || pos + total > Bytes.length buf then
    invalid_arg
      (Printf.sprintf
         "Wire.encode_into: frame of %d bytes does not fit at %d in buffer \
          of %d"
         total pos (Bytes.length buf));
  Bytes.set_int32_be buf pos (Int32.of_int (1 + payload_length f));
  Bytes.set_uint8 buf (pos + header_size) (tag_of_frame f);
  let p = ref (pos + header_size + 1) in
  let w8 v = Bytes.set_uint8 buf !p v; p := !p + 1 in
  let w16 v = Bytes.set_uint16_be buf !p v; p := !p + 2 in
  let w32 v = Bytes.set_int32_be buf !p (Int32.of_int v); p := !p + 4 in
  let w64 v = Bytes.set_int64_be buf !p (Int64.of_int v); p := !p + 8 in
  let wf v = Bytes.set_int64_be buf !p (Int64.bits_of_float v); p := !p + 8 in
  let wstr s =
    w32 (String.length s);
    Bytes.blit_string s 0 buf !p (String.length s);
    p := !p + String.length s
  in
  (match f with
  | Hello { version } ->
    Bytes.blit_string magic 0 buf !p 4;
    p := !p + 4;
    w16 version
  | Hello_ack { version; limits } ->
    w16 version;
    w32 limits.max_frame;
    w32 limits.max_sessions;
    w32 limits.max_members
  | Session_join { at; id; demand; members } ->
    wf at; w32 id; wf demand;
    w32 (Array.length members);
    Array.iter w32 members
  | Session_leave { at; id } -> wf at; w32 id
  | Demand_change { at; id; demand } -> wf at; w32 id; wf demand
  | Capacity_change { at; edge; capacity } -> wf at; w32 edge; wf capacity
  | Solve_report
      { seq; at; k; warm; certified; attempts; objective; solve_s; total_s } ->
    w64 seq; wf at; w32 k;
    w8 (if warm then 1 else 0);
    w8 (if certified then 1 else 0);
    w16 attempts;
    wf objective; wf solve_s; wf total_s
  | Metrics_pull { format } ->
    w8 (match format with Prometheus -> 0 | Json -> 1)
  | Metrics_reply { format; body } ->
    w8 (match format with Prometheus -> 0 | Json -> 1);
    wstr body
  | Error { code; message } ->
    w16 (error_code_to_int code);
    wstr message
  | Shutdown -> ());
  assert (!p = pos + total);
  !p

let encode f =
  let buf = Bytes.create (encoded_length f) in
  ignore (encode_into f buf ~pos:0);
  buf
