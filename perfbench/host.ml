(* Host record: what the run ran on, plus fixed calibration loops timed
   at the start and the end of the run.  They let a reader tell host
   drift (the loops slowed too) from a program change (they did not).
   They are recorded only; no metric is normalised by them. *)

let nproc () = Domain.recommended_domain_count ()

(* Two fixed loops, best of three each: an integer LCG (20M steps) that
   only the core's speed moves, and a pointer chase over a 512 KiB
   cycle (4M steps) that cache contention from a co-scheduled tenant
   also moves.  The solvers react like the second. *)
let chase =
  lazy
    (let n = 65_536 in
     let next = Array.init n (fun i -> i) in
     let rng = Random.State.make [| 7 |] in
     for i = n - 1 downto 1 do
       let j = Random.State.int rng i in
       let t = next.(i) in
       next.(i) <- next.(j);
       next.(j) <- t
     done;
     next)

let best_of_three f =
  let once () =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let a = once () in
  let b = once () in
  Float.min a (Float.min b (once ()))

let calibrate () =
  let alu =
    best_of_three (fun () ->
        let x = ref 1 in
        for _ = 1 to 20_000_000 do
          x := (!x * 1103515245) + 12345
        done;
        ignore (Sys.opaque_identity !x))
  in
  let next = Lazy.force chase in
  let cache =
    best_of_three (fun () ->
        let p = ref 0 in
        for _ = 1 to 4_000_000 do
          p := next.(!p)
        done;
        ignore (Sys.opaque_identity !p))
  in
  (alu, cache)

(* Peak resident set size in MB ([VmHWM]); the GC's top heap size when
   /proc is unavailable. *)
let rss_peak_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> Some (float_of_int kb /. 1024.0))
          | _ -> scan ()
          | exception End_of_file -> None
        in
        scan ())
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
    let st = Gc.quick_stat () in
    float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* [par_jobs]: the Par jobs of the timed passes; [pool_jobs]: those of
   the pooled passes (0 when the run has none). *)
let json ~par_jobs ~pool_jobs ~calib_start:(alu0, cache0) ~calib_end:(alu1, cache1) =
  Printf.sprintf
    "{\"nproc\":%d,\"ocaml_version\":%S,\"os\":%S,\"par_jobs\":%d,\"pool_jobs\":%d,\
     \"calib_alu_s\":[%.6f,%.6f],\"calib_cache_s\":[%.6f,%.6f]}"
    (nproc ()) Sys.ocaml_version Sys.os_type par_jobs pool_jobs alu0 alu1 cache0 cache1
