(* L002 fixture: wall-clock reads outside the tracer clock *)
let now () = Unix.gettimeofday ()

let cpu () = Sys.time ()
