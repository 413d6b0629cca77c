val nobody : int
val internal : int -> int
val doubled : int
val kept : int
