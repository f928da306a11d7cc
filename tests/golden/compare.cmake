# One golden-stdout check: runs `impact run <SPEC>` and compares its stdout
# byte for byte with the committed tests/golden/<SPEC>.txt.
#
#   cmake -DIMPACT=<impact binary> -DSPEC=<name> -DGOLDEN=<file>
#         -DOUT=<file> -P compare.cmake
#
# tests/CMakeLists.txt registers one such ctest per golden file.
execute_process(COMMAND "${IMPACT}" run "${SPEC}"
                OUTPUT_FILE "${OUT}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "impact run ${SPEC} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${OUT}"
                RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND "${DIFF}" -u "${GOLDEN}" "${OUT}")
  endif()
  message(FATAL_ERROR "stdout of `impact run ${SPEC}` (${OUT}) differs from "
          "${GOLDEN}; if the change is meant, regenerate the corpus as "
          "docs/correctness.md describes")
endif()
