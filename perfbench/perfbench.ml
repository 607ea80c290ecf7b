(* The repository benchmark's measuring program.

     perfbench gen --workload W --seed N --dir D
         write workload W's inputs for seed N into directory D
     perfbench run --workload W --dir D --seconds S --trace 0|1
         [--spans-out FILE]
         measure workload W on the inputs in D for about S seconds and
         print one JSON report line

   run.py drives both steps (each in its own process, so the measuring
   process starts with an empty heap) and turns the report into the
   benchmark's result line.  See README.md. *)

let usage () =
  prerr_endline
    "usage: perfbench gen --workload W --seed N --dir D\n\
    \       perfbench run --workload W --dir D --seconds S --trace 0|1 [--spans-out F]";
  exit 2

let () =
  let args = Array.to_list Sys.argv in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let cmd, kv =
    match args with _ :: cmd :: rest -> (cmd, opts [] rest) | _ -> usage ()
  in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let workload = get "workload" and dir = get "dir" in
  match cmd with
  | "gen" -> Gen.run ~workload ~seed:(int_of_string (get "seed")) ~dir
  | "run" ->
      let seconds = float_of_string (get "seconds") in
      let traced = get "trace" = "1" in
      let r =
        match workload with
        | "cold-mbench" -> Cold_mbench.run ~dir ~seconds ~traced
        | "hot-serve" -> Hot_serve.run ~dir ~seconds ~traced
        | "optimize-novel" -> Optimize_novel.run ~dir ~seconds ~traced
        | _ -> usage ()
      in
      let spans = Spans.all () in
      Option.iter (fun f -> Spans.write f spans) (List.assoc_opt "spans-out" kv);
      print_endline (Util.Json.to_string (Report.to_json ~workload ~spans r))
  | _ -> usage ()
