// Package marks is the linttest self-test corpus for diagnostic position
// matching, //grblint:ignore scoping and the runner's rules for the
// directives themselves: markcheck (defined in linttest_test.go) reports at
// every identifier named markme.
package marks

var markme = 1 // want `mark at markme`

var a = markme // want `mark at markme`

var b = markme //grblint:ignore markcheck -- trailing-form suppression

//grblint:ignore markcheck -- standalone-form suppression covers next line
var c = markme

var d = markme // want `mark at markme`

// A directive is held to the suppression rules: each of these still silences
// what it names, and is reported itself.

var e = markme //grblint:ignore markcheck // want `gives no reason`

var f = markme //grblint:ignore markcheck,obsvcheck -- a deleted analyzer // want `names "obsvcheck", which is not an analyzer`

var g = 1 //grblint:ignore markcheck -- nothing on this line or the next is reported // want `silences no markcheck diagnostic`

var h = 2 //grblint:ignore -- a reason for nothing // want `names no analyzer`
