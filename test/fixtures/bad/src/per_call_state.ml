(* L003 fixture: each binding is a function that builds fresh state on
   every call, so none of them is module-level state. *)
let create () = Hashtbl.create 16

let counter ~start = ref start

let buffer ?(size = 4096) () = Buffer.create size

let cell x = Atomic.make x

let queue (_ : unit) = Queue.create ()

let rec table n = if n <= 0 then Hashtbl.create 1 else table (n - 1)
