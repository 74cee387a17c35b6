package pdn

// The frozen scalar oracle and its bitwise comparison, for the external
// tests that build real-platform scenarios (package workload imports pdn,
// so only package pdn_test can use it).
var (
	OracleEvaluate = oracleEvaluate
	SameBits       = sameBits
)
