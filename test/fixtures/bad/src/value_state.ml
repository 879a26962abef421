(* L003 fixture: value bindings run once at module initialisation, so
   each is state every domain shares — annotated or not. *)
let table : (string, int) Hashtbl.t = Hashtbl.create 8

let hits : int ref = ref 0

let next = Atomic.make 0
